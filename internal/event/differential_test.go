package event

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEngine is the pre-calendar-queue scheduler (container/heap with
// interface boxing), kept verbatim as a differential oracle: whatever the
// production engine does, it must match this reference event-for-event.
type refEngine struct {
	now   Cycle
	seq   uint64
	queue refHeap
}

type refItem struct {
	when Cycle
	seq  uint64
	fn   Func
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(refItem)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (e *refEngine) Now() Cycle   { return e.now }
func (e *refEngine) Pending() int { return len(e.queue) }

func (e *refEngine) Schedule(delay Cycle, fn Func) { e.At(e.now+delay, fn) }

func (e *refEngine) At(when Cycle, fn Func) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	heap.Push(&e.queue, refItem{when: when, seq: e.seq, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := heap.Pop(&e.queue).(refItem)
	e.now = it.when
	e.fired(it)
	return true
}

func (e *refEngine) fired(it refItem) { it.fn(e.now) }

func (e *refEngine) Run(maxCycles Cycle) Cycle {
	for len(e.queue) > 0 {
		if maxCycles != 0 && e.queue[0].when > maxCycles {
			e.now = maxCycles
			break
		}
		e.Step()
	}
	return e.now
}

func (e *refEngine) NextWhen() (Cycle, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].when, true
}

func (e *refEngine) RunWindow(horizon Cycle) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].when < horizon {
		e.Step()
		n++
	}
	return n
}

func (e *refEngine) AdvanceTo(t Cycle) {
	if t > e.now {
		e.now = t
	}
}

// scheduler is the operation surface both engines share.
type scheduler interface {
	Now() Cycle
	Pending() int
	Schedule(Cycle, Func)
	At(Cycle, Func)
	Step() bool
	Run(Cycle) Cycle
	NextWhen() (Cycle, bool)
	RunWindow(Cycle) int
	AdvanceTo(Cycle)
}

var (
	_ scheduler = (*Engine)(nil)
	_ scheduler = (*refEngine)(nil)
)

// diffPlan is a deterministic workload: node i, when it fires, schedules its
// children. Delays cover zero (same-cycle FIFO), the current and the next
// 6-cycle window, typical latencies, and far-future values crossing the
// overflow boundary; At nodes target absolute cycles including the past
// (exercising the clamp).
type diffPlan struct {
	children [][]diffChild
	horizon  Cycle
	steps    int // events fired via Step before handing over to Run
}

type diffChild struct {
	node     int
	absolute bool
	deferred bool  // runWindows: scheduled at the barrier, not from the handler
	when     Cycle // delay, or absolute target if absolute
}

// diffQuantum is the window width runWindows drives, the NoC lookahead of
// the default machine.
const diffQuantum = 6

func makePlan(rng *rand.Rand) diffPlan {
	n := 40 + rng.Intn(120)
	p := diffPlan{children: make([][]diffChild, n)}
	for i := range p.children {
		kids := rng.Intn(3)
		for k := 0; k < kids; k++ {
			child := diffChild{node: rng.Intn(n)}
			switch rng.Intn(8) {
			case 0: // same-cycle
				child.when = 0
			case 1: // far future: at or beyond the ring window
				child.when = ringSize - 2 + Cycle(rng.Intn(3*ringSize))
			case 2: // absolute, possibly in the past
				child.absolute = true
				child.when = Cycle(rng.Intn(2 * ringSize))
			case 3: // this window or the next
				child.when = Cycle(rng.Intn(2 * diffQuantum))
			case 4: // a cross-shard effect: lands one lookahead past the barrier
				child.deferred = true
				child.when = diffQuantum + Cycle(rng.Intn(40))
			default: // typical component latency
				child.when = Cycle(rng.Intn(300))
			}
			p.children[i] = append(p.children[i], child)
		}
	}
	p.horizon = Cycle(500 + rng.Intn(4*ringSize))
	p.steps = rng.Intn(30)
	return p
}

// diffRun is one engine's pass over a plan: the observed firing trace, (node,
// cycle) per event, and the handler every node fires.
type diffRun struct {
	p      diffPlan
	e      scheduler
	trace  [][2]uint64
	budget int         // the node graph can cycle; cap total events
	ops    []diffChild // deferred children awaiting the barrier (runWindows)
	defers bool
}

func (r *diffRun) schedule(c diffChild) {
	if c.absolute {
		r.e.At(c.when, r.fire(c.node))
	} else {
		r.e.Schedule(c.when, r.fire(c.node))
	}
}

func (r *diffRun) fire(node int) Func {
	return func(now Cycle) {
		r.trace = append(r.trace, [2]uint64{uint64(node), uint64(now)})
		if r.budget == 0 {
			return
		}
		r.budget--
		for _, c := range r.p.children[node] {
			if c.deferred && r.defers {
				r.ops = append(r.ops, c)
			} else {
				r.schedule(c)
			}
		}
	}
}

func (p diffPlan) start(e scheduler) *diffRun {
	r := &diffRun{p: p, e: e, budget: 4000}
	for i := 0; i < 8 && i < len(p.children); i++ {
		e.Schedule(Cycle(i*i), r.fire(i))
	}
	return r
}

// run seeds roots at staggered delays, then interleaves Step, a horizon Run,
// and a drain Run — the consumption modes the single-engine call sites use.
func (p diffPlan) run(e scheduler) (trace [][2]uint64, final Cycle, pending int) {
	r := p.start(e)
	for i := 0; i < p.steps && e.Step(); i++ {
	}
	e.Run(p.horizon)
	e.Run(0)
	return r.trace, e.Now(), e.Pending()
}

// runWindows drives the plan the way par.Group drives every unsanitized
// point: NextWhen picks the window start (jumping empty quanta, however many
// overflow promotions that crosses), RunWindow fires one lookahead's worth,
// AdvanceTo normalizes the clock to the window end, and the effects the
// handlers deferred are scheduled from outside any handler at the barrier.
// Each window start is recorded in the trace, so NextWhen is compared too.
func (p diffPlan) runWindows(e scheduler) (trace [][2]uint64, final Cycle, pending int) {
	r := p.start(e)
	r.defers = true
	for {
		w, ok := e.NextWhen()
		if !ok {
			break
		}
		horizon := w + diffQuantum
		fired := e.RunWindow(horizon)
		r.trace = append(r.trace, [2]uint64{^uint64(0) - uint64(fired), uint64(w)})
		e.AdvanceTo(horizon)
		ops := r.ops
		r.ops = nil
		for _, c := range ops {
			r.schedule(c)
		}
	}
	return r.trace, e.Now(), e.Pending()
}

// TestDifferentialCalendarVsHeap drives the calendar-queue engine and the
// reference heap through identical randomized workloads, in both consumption
// styles (Step/Run and the windowed NextWhen/RunWindow/AdvanceTo loop), and
// requires identical firing order, clocks, and queue lengths.
func TestDifferentialCalendarVsHeap(t *testing.T) {
	f := func(seed int64, windows bool) bool {
		plan := makePlan(rand.New(rand.NewSource(seed)))
		drive := plan.run
		if windows {
			drive = plan.runWindows
		}
		gotTrace, gotFinal, gotPend := drive(New())
		wantTrace, wantFinal, wantPend := drive(&refEngine{})
		if gotFinal != wantFinal || gotPend != wantPend {
			t.Logf("seed %d: final=%d want %d, pending=%d want %d",
				seed, gotFinal, wantFinal, gotPend, wantPend)
			return false
		}
		if len(gotTrace) != len(wantTrace) {
			t.Logf("seed %d: fired %d events, want %d", seed, len(gotTrace), len(wantTrace))
			return false
		}
		for i := range gotTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Logf("seed %d: event %d = %v, want %v", seed, i, gotTrace[i], wantTrace[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowPromotionOrder pins the trickiest ordering case directly: an
// event scheduled far in the future (overflow heap), then — once time gets
// close — a same-cycle event scheduled later must fire after it.
func TestOverflowPromotionOrder(t *testing.T) {
	e := New()
	var order []int
	const far = ringSize + 100
	e.Schedule(far, func(Cycle) { order = append(order, 1) })
	// Walk time forward in small hops so promotion happens mid-run, then
	// schedule a competitor for the same absolute cycle from nearby.
	e.Schedule(far-50, func(Cycle) {
		e.At(far, func(Cycle) { order = append(order, 2) })
	})
	e.Run(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]: promoted overflow event must keep its seq priority", order)
	}
}

// TestScheduleCallZeroAlloc proves the fixed-payload path allocates nothing
// in steady state (after the ring and bucket capacities have warmed up).
func TestScheduleCallZeroAlloc(t *testing.T) {
	e := New()
	var fired uint64
	count := func(now Cycle, ref Ref) { fired += uint64(ref.A) }
	for i := 0; i < 10000; i++ { // warm bucket capacities
		e.ScheduleCall(Cycle(i%16), count, Ref{A: 1})
		e.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(3, count, Ref{Obj: e, A: 2, B: 3})
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("ScheduleCall+Step allocates %v allocs/op, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("callbacks did not run")
	}
}

// TestFreshEngineAllocBudget bounds what a NEW engine allocates before it
// reaches steady state — the cost every point of a sweep pays, which
// TestScheduleCallZeroAlloc's 16 warmed cycles cannot see. 200k events with
// delays spread over the whole ring and at most ringSize pending must fit in
// a handful of slab chunks, not one growing slice per cycle.
func TestFreshEngineAllocBudget(t *testing.T) {
	var fired int64
	count := func(_ Cycle, ref Ref) { fired += ref.A }
	allocs := testing.AllocsPerRun(1, func() {
		e := New()
		for i := 0; i < 200_000; i++ {
			e.ScheduleCall(Cycle(uint32(i)*2654435761>>20), count, Ref{Obj: e, A: 1})
			if e.Pending() == ringSize {
				e.Step()
			}
		}
		e.Run(0)
	})
	if allocs > 64 {
		t.Fatalf("a fresh engine allocated %v times for 200k events with <= %d pending, want <= 64", allocs, ringSize)
	}
	if fired != 2*200_000 {
		t.Fatalf("fired %d events, want %d", fired, 2*200_000)
	}
}

// BenchmarkScheduleFire measures the schedule+fire round trip for both
// scheduling forms. The fixed-payload form must report 0 allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		e := New()
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(Cycle(i%16), func(Cycle) { n++ })
			e.Step()
		}
	})
	b.Run("func-value", func(b *testing.B) {
		e := New()
		n := 0
		fn := func(Cycle) { n++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(Cycle(i%16), fn)
			e.Step()
		}
	})
	b.Run("fixed-payload", func(b *testing.B) {
		e := New()
		n := int64(0)
		fn := func(_ Cycle, ref Ref) { n += ref.A }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleCall(Cycle(i%16), fn, Ref{A: 1})
			e.Step()
		}
	})
}
