package noc

import (
	"testing"
	"testing/quick"

	"flov/internal/topology"
)

func TestFlitTypes(t *testing.T) {
	if !Head.IsHead() || !HeadTail.IsHead() || Body.IsHead() || Tail.IsHead() {
		t.Fatal("IsHead wrong")
	}
	if !Tail.IsTail() || !HeadTail.IsTail() || Body.IsTail() || Head.IsTail() {
		t.Fatal("IsTail wrong")
	}
	want := map[FlitType]string{Head: "H", Body: "B", Tail: "T", HeadTail: "S"}
	for ft, s := range want {
		if ft.String() != s {
			t.Errorf("%v.String() = %q", ft, ft.String())
		}
	}
}

// train returns the flit train of a size-flit packet with handle h.
func train(h PacketRef, size int) []Flit {
	fl := make([]Flit, size)
	for i := range fl {
		fl[i] = NewFlit(h, i, size)
	}
	return fl
}

func TestNewFlitTrain(t *testing.T) {
	fl := train(7, 4)
	if fl[0].Type != Head || fl[1].Type != Body || fl[2].Type != Body || fl[3].Type != Tail {
		t.Fatalf("flit train types wrong: %v %v %v %v", fl[0].Type, fl[1].Type, fl[2].Type, fl[3].Type)
	}
	for i, f := range fl {
		if int(f.Seq) != i || f.Pkt != 7 || f.VC != 0 {
			t.Fatalf("flit %d mis-built: %v", i, f)
		}
	}
	if single := NewFlit(7, 0, 1); single.Type != HeadTail {
		t.Fatal("single-flit packet must be HeadTail")
	}
}

func TestPacketLatencies(t *testing.T) {
	p := &Packet{CreatedAt: 100, InjectedAt: 110, EjectedAt: 150}
	if p.TotalLatency() != 50 || p.NetworkLatency() != 40 {
		t.Fatalf("latencies: total=%d net=%d", p.TotalLatency(), p.NetworkLatency())
	}
}

func TestInputVCFIFO(t *testing.T) {
	v := NewInputVC(0, 6)
	fl := train(1, 3)
	for i, f := range fl {
		v.Push(f, int64(i))
	}
	if v.Len() != 3 || v.Empty() {
		t.Fatal("buffer accounting wrong")
	}
	if v.FrontArrived() != 0 {
		t.Fatal("front arrival wrong")
	}
	for i := range fl {
		if got := v.Pop(); got != fl[i] {
			t.Fatalf("FIFO order broken at %d", i)
		}
	}
	if !v.Empty() {
		t.Fatal("not empty after popping all")
	}
}

func TestInputVCOverflowPanics(t *testing.T) {
	v := NewInputVC(0, 2)
	fl := train(1, 3)
	v.Push(fl[0], 0)
	v.Push(fl[1], 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic (credit violation)")
		}
	}()
	v.Push(fl[2], 0)
}

func TestInputVCResetRequiresEmpty(t *testing.T) {
	v := NewInputVC(0, 4)
	v.Push(NewFlit(1, 0, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic resetting non-empty VC")
		}
	}()
	v.Reset()
}

func TestInputVCReset(t *testing.T) {
	v := NewInputVC(2, 4)
	v.State = VCActive
	v.OutDir = topology.East
	v.OutVC = 3
	v.Reset()
	if v.State != VCIdle || v.OutVC != -1 {
		t.Fatal("Reset incomplete")
	}
}

// Property: interleaved push/pop preserves FIFO order and never exceeds
// capacity bookkeeping.
func TestInputVCFIFOProperty(t *testing.T) {
	err := quick.Check(func(ops []bool) bool {
		v := NewInputVC(0, 8)
		var next, expect int
		for _, push := range ops {
			if push && !v.Full() {
				f := Flit{Seq: uint16(next), Pkt: 1}
				next++
				v.Push(f, 0)
			} else if !push && !v.Empty() {
				if int(v.Pop().Seq) != expect {
					return false
				}
				expect++
			}
		}
		return v.Len() == next-expect
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOutputVCStateCredits(t *testing.T) {
	o := NewOutputVCState(4, 6, true)
	for vc := 0; vc < 4; vc++ {
		if o.Credits[vc] != 6 {
			t.Fatalf("vc %d not full", vc)
		}
	}
	o.Consume(0)
	o.Consume(0)
	if o.Credits[0] != 4 {
		t.Fatal("consume broken")
	}
	o.Return(0)
	if o.Credits[0] != 5 {
		t.Fatal("return broken")
	}
}

func TestOutputVCStateOverflowPanics(t *testing.T) {
	o := NewOutputVCState(2, 3, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit-overflow panic")
		}
	}()
	o.Return(1)
}

func TestOutputVCStateUnderflowPanics(t *testing.T) {
	o := NewOutputVCState(2, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected credit-underflow panic")
		}
	}()
	o.Consume(0)
}

func TestOutputVCStateSyncOps(t *testing.T) {
	o := NewOutputVCState(3, 6, true)
	o.Allocated[1] = true
	o.SetZero()
	for vc := 0; vc < 3; vc++ {
		if o.Credits[vc] != 0 || o.Allocated[vc] {
			t.Fatal("SetZero incomplete")
		}
	}
	o.CopyCounts([]int{2, 4, 6})
	if o.Credits[0] != 2 || o.Credits[1] != 4 || o.Credits[2] != 6 {
		t.Fatal("CopyCounts wrong")
	}
	o.SetFull()
	for vc := 0; vc < 3; vc++ {
		if o.Credits[vc] != 6 {
			t.Fatal("SetFull wrong")
		}
	}
}

func TestVCStateString(t *testing.T) {
	want := map[VCState]string{VCIdle: "Idle", VCRouting: "RC", VCWaitVC: "VA", VCActive: "SA"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestArenaHandlesAndReuse(t *testing.T) {
	a := NewArena()
	p := a.Alloc()
	if p.Ref == 0 || a.Get(p.Ref) != p || !a.IsLive(p.Ref) || a.Live() != 1 {
		t.Fatalf("first alloc: ref %d live %d", p.Ref, a.Live())
	}
	p.ID = 42
	// Growth past several chunks must not move a live packet.
	refs := []PacketRef{p.Ref}
	for i := 0; i < 3*chunkSize; i++ {
		refs = append(refs, a.Alloc().Ref)
	}
	if a.Get(p.Ref) != p || p.ID != 42 {
		t.Fatal("live packet moved or changed while the arena grew")
	}
	seen := map[PacketRef]bool{}
	for _, h := range refs {
		if h == 0 || seen[h] {
			t.Fatalf("handle %d handed out twice or zero", h)
		}
		seen[h] = true
	}
	// Freed slots come back last-in first-out, zeroed but for Ref.
	a.Free(refs[5])
	a.Free(refs[9])
	if q := a.Alloc(); q.Ref != refs[9] || q.ID != 0 {
		t.Fatalf("reuse: got %d (id %d), want %d zeroed", q.Ref, q.ID, refs[9])
	}
	if a.Live() != len(refs)-1 || a.IsLive(refs[5]) {
		t.Fatalf("live count %d after one net free of %d", a.Live(), len(refs))
	}
	if h := a.Add(Packet{ID: 7, Size: 2}); a.Get(h).ID != 7 || a.Get(h).Ref != h {
		t.Fatal("Add did not copy the packet into its own slot")
	}
	a.Reset()
	if a.Live() != 0 || a.IsLive(p.Ref) || a.Alloc().Ref != 1 {
		t.Fatal("Reset left live handles")
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena()
	h := a.Alloc().Ref
	a.Free(h)
	for _, bad := range []PacketRef{h, 0, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%d) of a slot that is not live did not panic", bad)
				}
			}()
			a.Free(bad)
		}()
	}
}

func TestFlitStateValidate(t *testing.T) {
	pkts := []PacketState{{Size: 4}}
	good := FlitState{Pkt: 0, Type: Tail, Seq: 3, VC: 5}
	if err := good.Validate(pkts, 6); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []FlitState{
		{Pkt: 1, Seq: 0, VC: 0},
		{Pkt: -1},
		{Pkt: 0, Type: HeadTail + 1},
		{Pkt: 0, Seq: 4},
		{Pkt: 0, VC: 6},
		{Pkt: 0, VC: -1},
	} {
		if bad.Validate(pkts, 6) == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}
