package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	err := quick.Check(func(n uint8) bool {
		m := int(n%63) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("Bernoulli(0.3) measured %.3f", rate)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkDecorrelates(t *testing.T) {
	base := NewRNG(5)
	f1 := base.Fork(1)
	f2 := base.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

func TestDelayLatency(t *testing.T) {
	d := NewDelay[int](3)
	d.Push(10, 42)
	for now := int64(10); now < 13; now++ {
		if d.Ready(now) {
			t.Fatalf("visible too early at %d", now)
		}
	}
	v, ok := d.Pop(13)
	if !ok || v != 42 {
		t.Fatalf("Pop(13) = %v, %v", v, ok)
	}
}

func TestDelayFIFOWithinCycle(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	d.Push(0, 2)
	d.Push(0, 3)
	var got []int
	for v, ok := d.Pop(1); ok; v, ok = d.Pop(1) {
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order violated: %v", got)
	}
}

func TestDelayOrderAcrossCycles(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	d.Push(1, 2)
	if v, _ := d.Pop(1); v != 1 {
		t.Fatal("first item not first out")
	}
	if d.Ready(1) {
		t.Fatal("second item visible too early")
	}
	if v, _ := d.Pop(2); v != 2 {
		t.Fatal("second item lost")
	}
}

func TestDelayPushAfter(t *testing.T) {
	d := NewDelay[int](1)
	d.PushAfter(0, 5, 9)
	if d.Ready(5) {
		t.Fatal("extra delay ignored")
	}
	if v, ok := d.Pop(6); !ok || v != 9 {
		t.Fatal("PushAfter item lost")
	}
}

// TestDelayLowersConsumerDue pins the wake contract skipping consumers
// rely on: every way of enqueueing lowers the consumer's due cycle to
// the item's ready cycle, and never raises it.
func TestDelayLowersConsumerDue(t *testing.T) {
	d := NewDelay[int](2)
	due := int64(math.MaxInt64)
	d.SetConsumer(&due)

	d.PushAfter(10, 3, 1) // ready 15
	if due != 15 {
		t.Fatalf("PushAfter: due = %d, want 15", due)
	}
	d.Push(10, 2) // ready 12
	if due != 12 {
		t.Fatalf("Push: due = %d, want 12", due)
	}
	d.Push(20, 3) // ready 22: later than due, must not raise it
	if due != 12 {
		t.Fatalf("later Push raised due to %d", due)
	}

	due = math.MaxInt64
	d.SetQueued([]Queued[int]{{Ready: 40, V: 1}, {Ready: 31, V: 2}})
	if due != 31 {
		t.Fatalf("SetQueued: due = %d, want 31", due)
	}
	// FIFO: the item ready at 31 sits behind the front, so nothing is
	// visible before 40 and MinReady says so.
	if got := d.MinReady(); got != 40 {
		t.Fatalf("MinReady = %d, want 40 (the front)", got)
	}
	if d.Ready(39) || !d.Ready(40) {
		t.Fatal("front visibility disagrees with MinReady")
	}
}

// TestDelayMinReadyEmpty: an empty or nil queue never wakes its consumer.
func TestDelayMinReadyEmpty(t *testing.T) {
	d := NewDelay[int](1)
	if got := d.MinReady(); got != math.MaxInt64 {
		t.Fatalf("empty MinReady = %d", got)
	}
	d.Push(3, 1)
	d.Pop(4)
	if got := d.MinReady(); got != math.MaxInt64 {
		t.Fatalf("drained MinReady = %d", got)
	}
	var none *Delay[int]
	if got := none.MinReady(); got != math.MaxInt64 {
		t.Fatalf("nil MinReady = %d", got)
	}
	// Without a consumer, pushes are plain enqueues.
	d.Push(5, 2)
	if got := d.MinReady(); got != 6 {
		t.Fatalf("MinReady = %d, want 6", got)
	}
}

func TestDelayEachAndLen(t *testing.T) {
	d := NewDelay[int](2)
	d.Push(0, 7)
	d.Push(0, 8)
	var sum int
	d.Each(func(v int) { sum += v })
	if sum != 15 || d.Len() != 2 || d.Empty() {
		t.Fatalf("Each/Len broken: sum=%d len=%d", sum, d.Len())
	}
}

func TestDelayRejectsZeroLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for latency 0")
		}
	}()
	NewDelay[int](0)
}

func TestDelayPopConsumesOnlyReady(t *testing.T) {
	d := NewDelay[int](1)
	d.Push(0, 1)
	d.Push(5, 2)
	var got []int
	for v, ok := d.Pop(1); ok; v, ok = d.Pop(1) {
		got = append(got, v)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("pop loop consumed wrong items: %v", got)
	}
	if d.Len() != 1 {
		t.Fatal("unready item removed")
	}
}

func TestKernelStepOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Register(TickFunc(func(now int64) { order = append(order, 1) }))
	k.Register(TickFunc(func(now int64) { order = append(order, 2) }))
	k.Step()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("tick order: %v", order)
	}
	if k.Now() != 1 {
		t.Fatalf("Now() = %d after one step", k.Now())
	}
}

func TestKernelRunPredicate(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Register(TickFunc(func(now int64) { count++ }))
	end, done := k.Run(100, func(now int64) bool { return now == 10 })
	if !done || end != 10 || count != 10 {
		t.Fatalf("Run stopped at %d done=%v count=%d", end, done, count)
	}
}

func TestKernelRunFor(t *testing.T) {
	k := NewKernel()
	k.RunFor(25)
	if k.Now() != 25 {
		t.Fatalf("Now() = %d", k.Now())
	}
}
