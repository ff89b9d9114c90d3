package noc

import "fmt"

// PacketRef is a handle to a packet in an Arena. Handle 0 is never
// allocated and means "no packet", so the zero Flit is "no flit".
type PacketRef int32

// Packets are stored in fixed-size chunks that are never moved or
// released, so a *Packet obtained from Get stays valid for as long as
// its handle is live, however much the arena grows meanwhile.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// arenaChunk holds chunkSize packet slots and their live flags.
type arenaChunk struct {
	pkts [chunkSize]Packet
	live [chunkSize]bool
}

// Arena owns every live packet of one network. A slot is taken by Alloc
// when a packet is created and returned by Free once the packet has left
// the network (tail ejected, or dropped as a classified loss). Freed
// handles are reused last-in first-out, so steady-state traffic touches
// a small, warm set of slots and allocates nothing. Handle values are
// never observable in results: packets are reported by ID.
type Arena struct {
	chunks []*arenaChunk
	free   []PacketRef // freed handles, reused LIFO
	next   PacketRef   // lowest never-allocated handle
	live   int
}

// NewArena returns an empty arena. It allocates no chunk until the first
// Alloc.
func NewArena() *Arena { return &Arena{next: 1} }

// Alloc takes a slot and returns its packet, zeroed apart from Ref, the
// slot's handle.
func (a *Arena) Alloc() *Packet {
	var h PacketRef
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		h = a.next
		a.next++
		if int(h>>chunkShift) == len(a.chunks) {
			a.chunks = append(a.chunks, new(arenaChunk)) //flovlint:allow hotalloc -- amortized arena growth: one chunk per 256 packets of peak live count, never released
		}
	}
	c := a.chunks[h>>chunkShift]
	c.live[h&chunkMask] = true
	a.live++
	p := &c.pkts[h&chunkMask]
	*p = Packet{Ref: h}
	return p
}

// Add allocates a slot holding a copy of p (with Ref set to the new
// slot's handle) and returns the handle.
func (a *Arena) Add(p Packet) PacketRef {
	slot := a.Alloc()
	p.Ref = slot.Ref
	*slot = p
	return p.Ref
}

// Get returns the packet of a live handle.
func (a *Arena) Get(h PacketRef) *Packet {
	return &a.chunks[h>>chunkShift].pkts[h&chunkMask]
}

// Free returns a live handle's slot for reuse. Freeing handle 0, an
// out-of-range handle or a slot that is already free is a simulator bug
// (a packet retired twice, or still referenced after retiring) and
// panics.
func (a *Arena) Free(h PacketRef) {
	if !a.IsLive(h) {
		panic(fmt.Sprintf("noc: freeing packet handle %d, which is not live", h))
	}
	a.chunks[h>>chunkShift].live[h&chunkMask] = false
	a.free = append(a.free, h)
	a.live--
}

// IsLive reports whether h names an allocated, not yet freed slot.
func (a *Arena) IsLive(h PacketRef) bool {
	return h > 0 && h < a.next && a.chunks[h>>chunkShift].live[h&chunkMask]
}

// Live returns the number of allocated, not yet freed handles.
func (a *Arena) Live() int { return a.live }

// Bound returns one past the highest handle ever allocated: every live
// handle is below it.
func (a *Arena) Bound() int { return int(a.next) }

// Reset frees every slot at once, keeping the chunks for reuse. A
// snapshot restore calls it before re-allocating the captured packets.
func (a *Arena) Reset() {
	for _, c := range a.chunks {
		c.live = [chunkSize]bool{}
	}
	a.free = a.free[:0]
	a.next = 1
	a.live = 0
}

// Describe renders a flit with its packet's ID and route, for panic
// messages and debugging.
func (a *Arena) Describe(f Flit) string {
	if !a.IsLive(f.Pkt) {
		return f.String() + " (no live packet)"
	}
	p := a.Get(f.Pkt)
	return fmt.Sprintf("pkt%d/%s%d vc%d %d->%d", p.ID, f.Type, f.Seq, f.VC, p.Src, p.Dst)
}
