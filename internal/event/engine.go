// Package event provides the discrete-event simulation kernel that drives
// every timed component in the simulator: cores, caches, NoC routers, DRAM
// controllers and stream engines all schedule callbacks on a shared Engine.
//
// The engine is single-threaded and deterministic: events at the same cycle
// fire in the order they were scheduled (FIFO tie-breaking by sequence
// number), so repeated runs of the same configuration produce identical
// statistics.
//
// # Queue structure
//
// The scheduler is a two-level calendar queue. Near-future events — almost
// everything a cycle-level simulation produces: L1/L2 lookup latencies,
// per-hop NoC delays, stream-engine advances — land in a power-of-two ring
// covering the next ringSize cycles. Far-future events (deep DRAM bandwidth
// queues, long horizons) go to a slice-based binary heap ordered by
// (when, seq) with no interface boxing. Whenever simulated time advances,
// overflow events whose cycle has entered the ring window are promoted into
// their cycle's list — always before any handler at the new time can schedule
// into those cycles, which keeps list order equal to global seq order and
// preserves exact FIFO semantics.
//
// # Slab
//
// A ring slot is only a {head, tail} pair of node indices; the events
// themselves live in one per-engine slab of nodes, each cycle's events
// chained through node.next in schedule order. Scheduling links a node at
// its cycle's tail and writes the event's fields straight into it (no item is
// built and copied in), firing unlinks the head and pushes the node on a LIFO
// free list. LIFO on purpose: the node an event just vacated is the one the
// next scheduled event is written into, so the queue's working set is the
// handful of host cache lines that are already hot, and an engine's memory
// is O(max pending events) rather than the sum of every cycle's peak. The
// slab grows by whole fixed-size chunks: growth never copies live nodes
// (indices stay valid, nothing is stranded at half size for the GC) and a
// fresh engine stops allocating after a handful of chunks — which matters
// because a sweep is made of short points that each start from a fresh engine.
// None of this can reach the schedule: a list is appended at the tail and
// consumed at the head, so list order == append order == seq order, exactly
// as with an append-only slice per cycle.
package event

import (
	"streamfloat/internal/sanitize"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Func is a callback executed when its event fires. The engine passes the
// current cycle so handlers do not need to capture the engine.
type Func func(now Cycle)

// Ref is the fixed payload of a closure-free event. Obj carries a
// pointer-shaped value (a component pointer, a pooled operation struct, or a
// func value) — storing such values in an interface performs no allocation.
// Do not store plain integers or structs in Obj; they would box. A and B
// carry small scalar operands.
type Ref struct {
	Obj  any
	A, B int64
}

// CallFunc is the handler form of a closure-free event: a package-level (or
// otherwise pre-existing) function receiving the firing cycle and the fixed
// payload it was scheduled with. Scheduling a CallFunc allocates nothing.
type CallFunc func(now Cycle, ref Ref)

// runFunc adapts the closure form onto the fixed-payload form; Schedule/At
// store the Func (pointer-shaped, no boxing) in Ref.Obj.
func runFunc(now Cycle, ref Ref) { ref.Obj.(Func)(now) }

// item is one scheduled event. No interface boxing: items live directly in
// slab nodes and the overflow heap.
type item struct {
	when Cycle
	seq  uint64
	call CallFunc
	ref  Ref
}

// ringBits sizes the near-future window: 2^ringBits cycles. The window must
// comfortably exceed every common component latency (cache lookups, NoC
// hops, uncongested DRAM) so that only pathological backlogs overflow.
const (
	ringBits = 12
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// node is one slab slot: a pending event linked into its cycle's list, or a
// free slot linked into the free list. Index 0 is reserved as the nil link,
// which keeps the zero bucket an empty list.
type node struct {
	item
	next int32
}

// chunkBits sizes the slab's growth step: 2^chunkBits nodes (64 KB) per
// chunk, enough that a typical 64-tile point needs only a few.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// bucket is the list of one cycle's events in schedule order: head is the
// next to fire, tail the last scheduled; both 0 when the cycle is empty.
type bucket struct {
	head, tail int32
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	size  int // pending events, ring + overflow

	ringCnt  int      // pending events in the ring
	ring     []bucket // ringSize per-cycle lists, indexed by when & ringMask
	overflow []item   // binary min-heap by (when, seq) for when-now >= ringSize

	chunks []*[chunkSize]node // the node slab; node i is chunks[i>>chunkBits][i&chunkMask]
	free   int32              // LIFO free list through node.next, 0 when empty

	// scanFrom is a lower bound on the earliest pending ring event's cycle:
	// no ring event exists strictly before it. nextWhen starts its bucket
	// scan here instead of at now, which makes repeated polling of a
	// near-idle engine O(1) — the shard runner (par.Group) polls every
	// engine once per quantum.
	scanFrom Cycle

	chk *sanitize.Checker
}

// SetChecker attaches sanitizer probes: every popped event is checked for
// time monotonicity (the queue must never hand back an event earlier than
// the cycle the engine has already advanced to). nil detaches.
func (e *Engine) SetChecker(chk *sanitize.Checker) { e.chk = chk }

// New returns an empty engine positioned at cycle 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed so far; useful for
// instrumentation and runaway detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return e.size }

// Schedule arranges fn to run delay cycles from now. A zero delay runs fn
// later in the current cycle, after all previously scheduled events for this
// cycle.
func (e *Engine) Schedule(delay Cycle, fn Func) {
	e.AtCall(e.now+delay, runFunc, Ref{Obj: fn})
}

// At arranges fn to run at the given absolute cycle. Scheduling in the past
// (when < Now) fires the event at the current cycle instead; this keeps
// latency arithmetic in callers simple and can never move time backwards.
func (e *Engine) At(when Cycle, fn Func) {
	e.AtCall(when, runFunc, Ref{Obj: fn})
}

// ScheduleCall arranges fn(now, ref) to run delay cycles from now. This is
// the closure-free form: fn should be a package-level function (or a func
// value that already exists) and ref its fixed payload, so hot paths
// schedule without allocating.
func (e *Engine) ScheduleCall(delay Cycle, fn CallFunc, ref Ref) {
	e.AtCall(e.now+delay, fn, ref)
}

// AtCall is the absolute-cycle form of ScheduleCall, with the same
// past-clamping as At.
func (e *Engine) AtCall(when Cycle, fn CallFunc, ref Ref) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	e.size++
	if when-e.now >= ringSize {
		e.overflowPush(item{when: when, seq: e.seq, call: fn, ref: ref})
		return
	}
	if when < e.scanFrom {
		e.scanFrom = when
	}
	n := e.link(when)
	n.seq, n.call, n.ref = e.seq, fn, ref
}

// node returns slab slot i.
func (e *Engine) node(i int32) *node { return &e.chunks[i>>chunkBits][i&chunkMask] }

// grow adds one chunk to the slab and threads its slots onto the free list
// in ascending order, so a fresh engine fills each chunk front to back. The
// first growth of a zero-value engine also makes the ring.
func (e *Engine) grow() {
	if e.ring == nil {
		e.ring = make([]bucket, ringSize)
	}
	c := new([chunkSize]node)
	base := int32(len(e.chunks)) << chunkBits
	e.chunks = append(e.chunks, c)
	first := int32(0)
	if base == 0 {
		first = 1 // slot 0 is the nil link
	}
	for i := int32(chunkSize - 1); i >= first; i-- {
		c[i].next = e.free
		e.free = base + i
	}
}

// link appends a node to the list of cycle when, which must lie inside the
// ring window, and returns it with when set for the caller to fill in. The
// node comes off the free list's top: the most recently fired event's slot.
func (e *Engine) link(when Cycle) *node {
	if e.free == 0 {
		e.grow()
	}
	i := e.free
	n := e.node(i)
	e.free = n.next
	n.when, n.next = when, 0
	b := &e.ring[when&ringMask]
	if b.tail == 0 {
		b.head = i
	} else {
		e.node(b.tail).next = i
	}
	b.tail = i
	e.ringCnt++
	return n
}

// nextWhen reports the cycle of the earliest pending event without advancing
// time. All ring events precede all overflow events (the promotion invariant
// keeps overflow cycles at least ringSize beyond now), so the ring is
// scanned first.
func (e *Engine) nextWhen() (Cycle, bool) {
	if e.size == 0 {
		return 0, false
	}
	if e.ringCnt > 0 {
		t := e.now
		if e.scanFrom > t {
			t = e.scanFrom
		}
		for ; t-e.now < ringSize; t++ {
			if e.ring[t&ringMask].head != 0 {
				e.scanFrom = t
				return t, true
			}
		}
	}
	return e.overflow[0].when, true
}

// NextWhen reports the cycle of the earliest pending event without advancing
// time, and whether any event is pending. Shard runners use it to pick the
// next quantum's window start.
func (e *Engine) NextWhen() (Cycle, bool) { return e.nextWhen() }

// RunWindow fires every pending event strictly before horizon, in (when, seq)
// order, and returns how many fired. Time advances only as far as the last
// fired event, so callbacks scheduled at or beyond horizon by other shards
// are never past-clamped. It is the per-quantum work unit of the shard
// runner (par.Group): with horizon set one conservative lookahead past the
// window start, every cross-shard effect of this window lands at or beyond
// horizon and the window's event schedule is independent of other shards.
func (e *Engine) RunWindow(horizon Cycle) int {
	n := 0
	for e.size > 0 {
		t, _ := e.nextWhen()
		if t >= horizon {
			break
		}
		e.fire(t)
		n++
	}
	return n
}

// advanceTo moves simulated time forward to t and promotes every overflow
// event whose cycle has entered the ring window. Promotion happens at every
// time advance, before any handler at t runs: a handler scheduling into a
// newly opened cycle therefore always appends after older (lower-seq)
// promoted events, preserving global FIFO order. Time never moves backwards.
func (e *Engine) advanceTo(t Cycle) {
	if t > e.now {
		e.now = t
	}
	for len(e.overflow) > 0 && e.overflow[0].when-e.now < ringSize {
		it := e.overflowPop()
		e.link(it.when).item = it
	}
}

// fire advances to t and executes the earliest event there.
func (e *Engine) fire(t Cycle) {
	prev := e.now
	e.advanceTo(t)
	b := &e.ring[t&ringMask]
	i := b.head
	n := e.node(i)
	it := n.item
	if b.head = n.next; b.head == 0 {
		b.tail = 0
	}
	n.call, n.ref.Obj = nil, nil // release payload references
	n.next = e.free
	e.free = i
	e.ringCnt--
	e.size--
	if e.chk != nil && it.when < prev {
		e.chk.Failf(0, "event: time moved backwards: popped event for cycle %d (seq %d) at now=%d",
			it.when, it.seq, prev)
	}
	e.fired++
	it.call(e.now, it.ref)
}

// AdvanceTo moves simulated time forward to t (never backwards) without
// firing anything, promoting overflow events into the ring as usual. Shard
// runners use it to normalize every engine to the quantum boundary before
// barrier ops execute.
func (e *Engine) AdvanceTo(t Cycle) { e.advanceTo(t) }

// Step fires the single earliest event and returns true, or returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	t, ok := e.nextWhen()
	if !ok {
		return false
	}
	e.fire(t)
	return true
}

// Run executes events until the queue drains or until an event horizon of
// maxCycles is crossed (0 means no horizon). It returns the final cycle.
func (e *Engine) Run(maxCycles Cycle) Cycle {
	for e.size > 0 {
		t, _ := e.nextWhen()
		if maxCycles != 0 && t > maxCycles {
			e.advanceTo(maxCycles)
			break
		}
		e.fire(t)
	}
	return e.now
}

// RunUntil executes events while pred returns false, stopping as soon as it
// returns true or the queue drains. pred is evaluated after every event.
func (e *Engine) RunUntil(pred func() bool) Cycle {
	for !pred() && e.Step() {
	}
	return e.now
}

// overflowPush inserts an item into the far-future heap.
func (e *Engine) overflowPush(it item) {
	h := append(e.overflow, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

// overflowPop removes and returns the heap minimum.
func (e *Engine) overflowPop() item {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item{} // release payload references
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && itemLess(&h[l], &h[s]) {
			s = l
		}
		if r < n && itemLess(&h[r], &h[s]) {
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

func itemLess(a, b *item) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
