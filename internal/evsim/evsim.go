// Package evsim is a small discrete-event simulation kernel playing the
// role Sparta plays in Coyote: hardware is modelled as independent units
// connected by latency-carrying ports, advanced by a time-ordered event
// queue. The Coyote orchestrator (internal/core) interleaves this event
// model with the instruction-by-instruction CPU model, advancing it to the
// current cycle after every simulated instruction slot (paper §III-A).
//
// The queue is a monotonic bucketed calendar: a ring of per-cycle FIFO
// buckets covering the next bucketWindow cycles (sized to the common
// NoC + L2 + DRAM latency chain), with a binary-heap overflow lane for
// far-future events. Schedule and pop are O(1) in the steady state, with
// no interface boxing and no per-event allocation — the costs the old
// container/heap queue paid on every operation.
package evsim

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/coyote-sim/coyote/internal/san"
)

// Cycle is a simulation timestamp in clock cycles.
type Cycle = uint64

// Handle names a callback registered with Engine.RegisterFn. Handles are
// what make the calendar serializable: a closure cannot be written to a
// checkpoint, but a handle can — provided units register their callbacks
// in a deterministic order (which they do: unit construction order is a
// pure function of the Config). Handle 0 means "unregistered".
type Handle uint32

// event is one queued callback. Either fn (a plain closure) or afn+arg
// (the allocation-free variant: a long-lived callback plus a word of
// context travelling inside the event) is set. h, when non-zero, is the
// registered handle for afn — the serializable identity of the callback.
type event struct {
	when Cycle
	seq  uint64 // FIFO tie-break: events at the same cycle run in schedule order
	fn   func()
	afn  func(uint64)
	arg  uint64
	h    Handle
}

func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

const (
	// bucketWindow is the calendar horizon in cycles. It must be a power
	// of two and should cover the common scheduling distance: the longest
	// single-event hop in the uncore is NoC + L2 miss + DRAM ≲ 512 cycles,
	// so 1024 keeps virtually every event in the O(1) ring. Farther events
	// take the overflow heap and migrate into the ring as time advances.
	bucketWindow = 1024
	bucketMask   = bucketWindow - 1
	occWords     = bucketWindow / 64
)

// Engine owns the event queue and the simulation clock. Deterministic:
// same schedule calls → same execution order.
type Engine struct {
	now      Cycle
	seq      uint64
	executed uint64
	pending  int // total queued events (ring + overflow)

	// catchingUp is set while AdvanceTo or Drain runs the events of the
	// cycle the clock already stood at on entry; see CatchingUp.
	catchingUp bool

	// Calendar ring: buckets[w & bucketMask] holds the events of cycle w
	// for w in [base, base+bucketWindow). base tracks the clock, so each
	// slot holds events of exactly one cycle. occ is the occupancy bitset
	// used to find the next non-empty bucket in O(bucketWindow/64).
	base   Cycle
	inRing int
	occ    [occWords]uint64
	bucket [bucketWindow][]event

	// free holds the backing arrays of drained buckets, last in first out:
	// an empty bucket owns no storage, and the next one that needs some
	// takes the array that ran most recently. The ring's memory is then
	// the cycles that hold events right now, not a private array per slot
	// each touched once per window. An array is only ever made for a
	// bucket that finds the list empty, so there are never more arrays
	// than slots and the list cannot overflow.
	free  [bucketWindow][]event
	nfree int

	// ringMinAt memoizes the earliest ring event time so the per-cycle
	// orchestrator poll does not rescan the occupancy bitset while waiting
	// out a long latency (a DRAM round trip polls ~100 times). Enqueues
	// only lower it; it is invalidated when its bucket runs.
	ringMinAt    Cycle
	ringMinValid bool

	// overflow is a hand-rolled binary min-heap on (when, seq) for events
	// at or beyond base+bucketWindow. No container/heap: pushing through
	// the heap.Interface would box every event into an `any`.
	overflow []event

	// fns is the handle registry: fns[h-1] is the callback registered as
	// Handle h. Registration happens at unit construction time, in
	// deterministic order, so a checkpoint written by one engine instance
	// restores correctly into a freshly built one.
	fns []func(uint64)

	san san.Queue
}

// NewEngine returns an engine at cycle 0.
func NewEngine() *Engine {
	e := &Engine{}
	e.san.Init("evsim.queue")
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Executed returns the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// CatchingUp reports whether the running event belongs to the cycle the
// clock already stood at when the current AdvanceTo or Drain began. Such
// an event was scheduled with zero delay after that cycle's own sweep had
// finished — by code outside the engine, the orchestrator's core step —
// so whatever it schedules queues behind everything that code scheduled,
// whereas the cycle's regular events all queued ahead of it. A unit whose
// ordering depends on that difference (uncore back-pressure) asks here.
func (e *Engine) CatchingUp() bool { return e.catchingUp }

// Schedule queues fn to run delay cycles from now. A delay of 0 runs the
// event within the current AdvanceTo sweep (after already-queued events
// for this cycle).
//
//coyote:allocfree
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.enqueue(e.now+delay, event{fn: fn})
}

// ScheduleAt queues fn at an absolute cycle. Scheduling in the past is a
// programming error and panics: it would silently corrupt causality.
//
//coyote:allocfree
func (e *Engine) ScheduleAt(when Cycle, fn func()) {
	e.enqueue(when, event{fn: fn})
}

// ScheduleArg queues fn(arg) delay cycles from now without allocating: fn
// is expected to be a long-lived pre-bound callback, and arg (a register
// number, an address, a pool index …) travels inside the event itself.
// This is the steady-state scheduling path of the uncore.
//
//coyote:allocfree
func (e *Engine) ScheduleArg(delay Cycle, fn func(uint64), arg uint64) {
	e.enqueue(e.now+delay, event{afn: fn, arg: arg})
}

// ScheduleArgAt is ScheduleArg at an absolute cycle.
//
//coyote:allocfree
func (e *Engine) ScheduleArgAt(when Cycle, fn func(uint64), arg uint64) {
	e.enqueue(when, event{afn: fn, arg: arg})
}

// RegisterFn registers a long-lived callback and returns its handle.
// Events scheduled through ScheduleArgH with that handle survive
// checkpointing: the handle, not the function pointer, is what gets
// serialized. Call order must be deterministic (it is: all production
// registrations happen during System/Uncore construction, whose order is
// a pure function of the Config).
func (e *Engine) RegisterFn(fn func(uint64)) Handle {
	if fn == nil {
		panic("evsim: RegisterFn(nil)")
	}
	e.fns = append(e.fns, fn)
	return Handle(len(e.fns))
}

// Registered returns the number of registered handles — a cheap
// structural integrity check when restoring a checkpoint (the restoring
// system must have built the exact same units).
func (e *Engine) Registered() int { return len(e.fns) }

// ScheduleArgH is ScheduleArg for a registered callback: fn must be the
// function registered as h. The direct pointer keeps dispatch free of a
// registry lookup; the handle makes the event checkpointable.
//
//coyote:allocfree
func (e *Engine) ScheduleArgH(delay Cycle, fn func(uint64), arg uint64, h Handle) {
	e.enqueue(e.now+delay, event{afn: fn, arg: arg, h: h})
}

// ScheduleArgAtH is ScheduleArgH at an absolute cycle.
//
//coyote:allocfree
func (e *Engine) ScheduleArgAtH(when Cycle, fn func(uint64), arg uint64, h Handle) {
	e.enqueue(when, event{afn: fn, arg: arg, h: h})
}

func (e *Engine) enqueue(when Cycle, ev event) {
	if when < e.now {
		panic(fmt.Sprintf("evsim: schedule at %d before now %d", when, e.now))
	}
	e.san.Schedule(e.now, when)
	e.seq++
	ev.when = when
	ev.seq = e.seq
	e.pending++
	if when < e.base+bucketWindow {
		e.san.RingSlot(e.base, when, bucketWindow)
		slot := int(when) & bucketMask
		b := e.storage(slot)
		b = append(b, ev)
		e.bucket[slot] = b
		e.occ[slot>>6] |= 1 << uint(slot&63)
		e.inRing++
		if !e.ringMinValid || when < e.ringMinAt {
			e.ringMinAt, e.ringMinValid = when, true
		}
		return
	}
	e.san.OverflowPush(e.base, when, bucketWindow)
	e.heapPush(ev)
}

// storage returns slot's bucket to append to; an empty bucket takes the
// most recently drained array off the free list.
func (e *Engine) storage(slot int) []event {
	b := e.bucket[slot]
	if cap(b) == 0 && e.nfree > 0 {
		e.nfree--
		b, e.free[e.nfree] = e.free[e.nfree], nil
	}
	return b
}

// slideTo moves the ring window start to base (the new clock value) and
// migrates overflow events that now fall inside the window. Buckets behind
// the new base are necessarily empty: their events already ran.
func (e *Engine) slideTo(base Cycle) {
	if base <= e.base {
		return
	}
	e.base = base
	for len(e.overflow) > 0 && e.overflow[0].when < base+bucketWindow {
		ev := e.heapPop()
		e.san.RingSlot(e.base, ev.when, bucketWindow)
		slot := int(ev.when) & bucketMask
		b := e.storage(slot)
		if n := len(b); n > 0 && b[n-1].seq > ev.seq {
			// The bucket already holds events scheduled after this one
			// (they entered the ring directly while this event waited in
			// the overflow lane). Insert by seq to keep FIFO order. Rare.
			i := n
			for i > 0 && b[i-1].seq > ev.seq {
				i--
			}
			b = append(b, event{})
			copy(b[i+1:], b[i:n])
			b[i] = ev
		} else {
			b = append(b, ev)
		}
		e.bucket[slot] = b
		e.occ[slot>>6] |= 1 << uint(slot&63)
		e.inRing++
		if !e.ringMinValid || ev.when < e.ringMinAt { //coyote:mut-survivor equivalent: on ev.when == ringMinAt the assignment rewrites identical values
			e.ringMinAt, e.ringMinValid = ev.when, true
		}
	}
}

// ringMin returns the earliest event time in the ring. Caller guarantees
// inRing > 0. Usually answered from the memoized minimum; scans the
// occupancy bitset from the base slot (wrapping) on a cache miss.
func (e *Engine) ringMin() Cycle {
	if e.ringMinValid {
		return e.ringMinAt
	}
	start := int(e.base) & bucketMask
	w := start >> 6
	word := e.occ[w] &^ (1<<uint(start&63) - 1)
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			delta := (slot - start + bucketWindow) & bucketMask
			e.ringMinAt, e.ringMinValid = e.base+Cycle(delta), true
			return e.ringMinAt
		}
		w++
		if w == occWords {
			w = 0
		}
		word = e.occ[w]
	}
	panic("evsim: ring occupancy corrupt")
}

// nextTime reports the earliest queued event time. Ring events always
// precede overflow events: the overflow lane only holds events at or
// beyond base+bucketWindow.
func (e *Engine) nextTime() (Cycle, bool) {
	if e.inRing > 0 {
		return e.ringMin(), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// NextEventTime reports the timestamp of the earliest queued event.
func (e *Engine) NextEventTime() (Cycle, bool) { return e.nextTime() }

// runBucket executes every event in the bucket of the current cycle, in
// seq (schedule) order. Events may append to the same bucket (delay-0
// cascades); the index loop picks them up. The drained array goes to the
// free list — the steady state allocates nothing.
func (e *Engine) runBucket(slot int) {
	b := e.bucket[slot]
	for i := 0; i < len(b); i++ {
		ev := &b[i]
		e.san.Pop(e.now, ev.when)
		e.executed++
		e.pending--
		e.inRing--
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.afn(ev.arg)
		}
		b = e.bucket[slot]
	}
	for i := range b {
		b[i] = event{} // drop closure references
	}
	e.bucket[slot] = nil
	e.free[e.nfree] = b[:0]
	e.nfree++
	e.occ[slot>>6] &^= 1 << uint(slot&63)
	if e.ringMinValid && e.ringMinAt <= e.now {
		// The memoized minimum pointed at (or before) the bucket that just
		// drained — including delay-0 cascades enqueued mid-run. Rescan
		// lazily on the next ringMin call.
		e.ringMinValid = false
	}
}

// AdvanceTo runs every event scheduled at or before target, then sets the
// clock to target. Events may schedule further events; those falling
// within the window run in the same sweep.
//
//coyote:allocfree
func (e *Engine) AdvanceTo(target Cycle) {
	if target < e.now {
		panic(fmt.Sprintf("evsim: advance to %d before now %d", target, e.now))
	}
	entry := e.now
	for e.pending > 0 {
		t, _ := e.nextTime()
		if t > target {
			break
		}
		e.now = t
		e.catchingUp = t == entry
		e.slideTo(t)
		e.runBucket(int(t) & bucketMask)
	}
	e.catchingUp = false
	e.now = target
	e.slideTo(target)
	e.san.Counts(e.now, e.pending, e.inRing, len(e.overflow))
}

// Drain runs every queued event regardless of time and returns the final
// clock value. Useful for quiescing the model at end of simulation.
//
//coyote:allocfree
func (e *Engine) Drain() Cycle {
	entry := e.now
	for e.pending > 0 {
		t, _ := e.nextTime()
		e.now = t
		e.catchingUp = t == entry
		e.slideTo(t)
		e.runBucket(int(t) & bucketMask)
	}
	e.catchingUp = false
	e.san.Counts(e.now, e.pending, e.inRing, len(e.overflow))
	return e.now
}

// heapPush and heapPop maintain the overflow lane: a plain binary min-heap
// on (when, seq) over a reused slice.
func (e *Engine) heapPush(ev event) {
	e.overflow = append(e.overflow, ev)
	h := e.overflow
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if eventLess(&h[p], &h[i]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (e *Engine) heapPop() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop closure references
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && eventLess(&h[l], &h[s]) {
			s = l
		}
		if r < n && eventLess(&h[r], &h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	e.overflow = h
	return top
}

// Port is a latency-carrying, typed connection between units: Send(v)
// delivers v to the sink after the port's fixed latency. This mirrors
// Sparta's port/latency idiom and keeps units decoupled.
//
// Send is allocation-free in the steady state: values queue in a reused
// FIFO ring inside the port and a single pre-bound delivery callback is
// scheduled per message. This is sound because every Send uses the same
// fixed latency, so deliveries fire in send order. SendAfter takes a
// per-message extra delay and therefore still allocates a closure.
type Port[T any] struct {
	eng     *Engine
	latency Cycle
	sink    func(T)
	sent    uint64

	fifo    []T
	head    int
	deliver func(uint64)
	h       Handle
}

// NewPort wires a port into eng with the given delivery latency and sink.
// The delivery callback is registered with the engine so in-flight port
// messages survive checkpointing.
func NewPort[T any](eng *Engine, latency Cycle, sink func(T)) *Port[T] {
	if sink == nil {
		panic("evsim: nil port sink")
	}
	p := &Port[T]{eng: eng, latency: latency, sink: sink}
	p.deliver = func(uint64) {
		v := p.fifo[p.head]
		var zero T
		p.fifo[p.head] = zero
		p.head++
		if p.head == len(p.fifo) {
			p.fifo = p.fifo[:0]
			p.head = 0
		}
		p.sink(v)
	}
	p.h = eng.RegisterFn(p.deliver)
	return p
}

// Send schedules delivery of v after the port latency. Allocation-free in
// the steady state.
//
//coyote:allocfree
func (p *Port[T]) Send(v T) {
	p.sent++
	p.fifo = append(p.fifo, v)
	p.eng.ScheduleArgH(p.latency, p.deliver, 0, p.h)
}

// SendAfter schedules delivery with extra delay on top of the port latency
// (used to model arbitration or bandwidth backpressure). Unlike Send it
// allocates: the per-message delay breaks the FIFO delivery invariant the
// allocation-free path relies on.
func (p *Port[T]) SendAfter(extra Cycle, v T) {
	p.sent++
	p.eng.Schedule(p.latency+extra, func() { p.sink(v) })
}

// Latency returns the port's fixed delivery latency.
func (p *Port[T]) Latency() Cycle { return p.latency }

// Sent returns the number of messages pushed through the port.
func (p *Port[T]) Sent() uint64 { return p.sent }

// Pending returns the values queued for delivery, oldest first — the
// port-local half of a checkpoint (the matching delivery events live in
// the engine's calendar). Read-only view into the FIFO.
func (p *Port[T]) Pending() []T { return p.fifo[p.head:] }

// RestorePending reloads the FIFO from a checkpoint. It only reloads the
// values: the delivery events themselves are restored by the engine's
// calendar restore, which resolves this port's registered handle.
func (p *Port[T]) RestorePending(vs []T, sent uint64) {
	p.fifo = append(p.fifo[:0], vs...)
	p.head = 0
	p.sent = sent
}

// Unit is anything that exposes statistics to the report. Units register
// with a Registry so reports are assembled generically, as Sparta does
// with its statistics tree.
type Unit interface {
	Name() string
	Counters() map[string]uint64
}

// Registry collects units for reporting.
type Registry struct {
	units []Unit
}

// Register adds u to the registry.
func (r *Registry) Register(u Unit) { r.units = append(r.units, u) }

// Units returns the registered units in registration order.
func (r *Registry) Units() []Unit { return r.units }

// Snapshot flattens every unit's counters into "unit.counter" → value,
// sorted iteration left to the caller.
func (r *Registry) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for _, u := range r.units {
		//coyote:mapiter-ok copies pairs into another map; destination is order-independent and callers sort keys
		for k, v := range u.Counters() {
			out[u.Name()+"."+k] = v
		}
	}
	return out
}

// SortedKeys returns the snapshot keys in lexical order (deterministic
// report output).
func SortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	//coyote:mapiter-ok keys are sorted immediately below, erasing visit order
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
