package sim

import "math"

// Delay is an ordered delay queue: items pushed at cycle t with latency L
// become visible at cycle t+L. It models a pipelined wire/FIFO between two
// components. Because consumers can only observe items pushed on earlier
// cycles, evaluation order between components within a cycle does not
// matter, which gives the simulator register-transfer semantics.
//
// FIFO order is preserved even for items pushed on the same cycle, so a
// control channel can rely on "credit then notice" ordering.
//
// A Delay may name its consumer's due cycle (SetConsumer): the cycle at
// which a consumer that skips idle cycles must next tick. Every enqueue
// lowers it to the new item's ready cycle, so a skipping consumer never
// misses an arrival.
type Delay[T any] struct {
	latency  int64 //flovsnap:skip property of the wire, not of the traffic on it
	items    []timed[T]
	consumer *int64 //flovsnap:skip wiring installed by the consumer, not traffic state
}

type timed[T any] struct {
	ready int64
	v     T
}

// NewDelay returns a delay queue with the given latency in cycles.
// Latency must be at least 1 to preserve order-independence.
func NewDelay[T any](latency int) *Delay[T] {
	if latency < 1 {
		panic("sim: Delay latency must be >= 1")
	}
	return &Delay[T]{latency: int64(latency)}
}

// SetConsumer names the due cycle of the component that pops this
// queue. From then on every Push, PushAfter and SetQueued lowers *due to
// the ready cycle of each item it enqueues.
func (d *Delay[T]) SetConsumer(due *int64) { d.consumer = due }

// enqueue appends one item and lowers the consumer's due cycle to its
// ready cycle.
func (d *Delay[T]) enqueue(ready int64, v T) {
	d.items = append(d.items, timed[T]{ready: ready, v: v})
	if c := d.consumer; c != nil && ready < *c {
		*c = ready
	}
}

// Push enqueues v at cycle now; it becomes visible at now+latency.
func (d *Delay[T]) Push(now int64, v T) { d.enqueue(now+d.latency, v) }

// PushAfter enqueues v with an extra delay on top of the base latency.
func (d *Delay[T]) PushAfter(now int64, extra int64, v T) { d.enqueue(now+d.latency+extra, v) }

// MinReady returns the first cycle at which an item can become visible:
// the front item's ready cycle, since items leave in FIFO order and
// nothing behind the front is visible before it. It is math.MaxInt64
// when the queue is empty or nil (an unconnected port). A consumer that
// goes quiet recomputes its due cycle from the MinReady of every input
// queue.
func (d *Delay[T]) MinReady() int64 {
	if d == nil || len(d.items) == 0 {
		return math.MaxInt64
	}
	return d.items[0].ready
}

// Ready reports whether an item is visible at cycle now.
func (d *Delay[T]) Ready(now int64) bool {
	return len(d.items) > 0 && d.items[0].ready <= now
}

// Pop removes and returns the front item if it is visible at cycle now.
func (d *Delay[T]) Pop(now int64) (T, bool) {
	var zero T
	if !d.Ready(now) {
		return zero, false
	}
	v := d.items[0].v
	// Shift rather than reslice forever; the queue is short in practice.
	copy(d.items, d.items[1:])
	d.items = d.items[:len(d.items)-1]
	return v, true
}

// Drain visits every item visible at cycle now, in order, without
// allocating a result slice.
func (d *Delay[T]) Drain(now int64, fn func(T)) {
	for d.Ready(now) {
		v, _ := d.Pop(now)
		fn(v)
	}
}

// Each visits every queued item (visible or not), in order, without
// removing anything. Used for consistency snapshots (e.g. counting
// in-flight flits when synchronizing credits across a power transition).
func (d *Delay[T]) Each(fn func(T)) {
	for _, it := range d.items {
		fn(it.v)
	}
}

// Len returns the number of queued items (visible or not).
func (d *Delay[T]) Len() int { return len(d.items) }

// Empty reports whether no items are queued at all.
func (d *Delay[T]) Empty() bool { return len(d.items) == 0 }

// Latency returns the queue's base latency in cycles.
func (d *Delay[T]) Latency() int64 { return d.latency }

// Queued is one in-flight item of a Delay with its absolute ready cycle,
// as captured by Queued()/restored by SetQueued (checkpointing).
type Queued[T any] struct {
	Ready int64
	V     T
}

// Queued returns every in-flight item with its absolute ready cycle, in
// queue order.
func (d *Delay[T]) Queued() []Queued[T] {
	out := make([]Queued[T], len(d.items))
	for i, it := range d.items {
		out[i] = Queued[T]{Ready: it.ready, V: it.v}
	}
	return out
}

// SetQueued replaces the queue contents with the given items (absolute
// ready cycles, queue order). The latency is unchanged; it is a property
// of the wire, not of the traffic on it. Like Push, each restored item
// lowers the consumer's due cycle.
func (d *Delay[T]) SetQueued(items []Queued[T]) {
	d.items = d.items[:0]
	for _, it := range items {
		d.enqueue(it.Ready, it.V)
	}
}
