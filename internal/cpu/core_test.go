package cpu

import (
	"slices"
	"strings"
	"testing"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/mem"
	"streamfloat/internal/noc"
	"streamfloat/internal/par/partest"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stream"
	"streamfloat/internal/workload"
)

type rig struct {
	*partest.Rig // the shared one-shard rig: Eng, St, Run

	cfg config.Config
	sys *cache.System
	bk  *mem.Backing
}

func newRig(core config.CoreKind) *rig {
	cfg := config.Default()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Core = core
	return newRigCfg(cfg)
}

func newRigCfg(cfg config.Config) *rig {
	pr := partest.New(cfg.Tiles(), event.Cycle(cfg.RouterLatency+cfg.LinkLatency))
	mesh := noc.New(pr.Layout, cfg.MeshWidth, cfg.MeshHeight, cfg.LinkBits, cfg.RouterLatency, cfg.LinkLatency)
	dram := mem.NewDRAM(pr.Layout, cfg.DRAMLatency, cfg.DRAMBandwidthBpc, cfg.MemControllerTiles())
	return &rig{Rig: pr, cfg: cfg, sys: cache.NewSystem(pr.Layout, cfg, mesh, dram), bk: mem.NewBacking()}
}

// streamPhase builds a single-phase program with one dense affine load.
func streamPhase(base uint64, lines int64, compute, instrs int) workload.Program {
	return workload.Program{Phases: []workload.Phase{{
		Name: "p",
		Loads: []stream.Decl{{ID: 0, Name: "a", PC: 1, Affine: &stream.Affine{
			Base: base, ElemSize: 64, Strides: [3]int64{64}, Lens: [3]int64{lines},
		}}},
		NumIters:      lines,
		ComputeCycles: compute,
		InstrsPerIter: instrs,
	}}}
}

func runCore(t *testing.T, r *rig, prog workload.Program) event.Cycle {
	t.Helper()
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	done := false
	c.BeginPhase(0, func() { done = true })
	r.Run()
	if !done {
		t.Fatalf("phase did not complete: %s", c.Progress())
	}
	return r.Eng.Now()
}

func TestCoreCompletesAllIterations(t *testing.T) {
	r := newRig(config.OOO8)
	runCore(t, r, streamPhase(0x100000, 100, 2, 8))
	if r.St.Iterations != 100 {
		t.Errorf("iterations = %d", r.St.Iterations)
	}
	if r.St.Instructions != 800 {
		t.Errorf("instructions = %d", r.St.Instructions)
	}
}

func TestOOOOverlapsMisses(t *testing.T) {
	// 64 independent miss-bound iterations: the OOO8 core must overlap them
	// while IO4 mostly serializes.
	rOOO := newRig(config.OOO8)
	cyOOO := runCore(t, rOOO, streamPhase(0x100000, 64, 1, 4))
	rIO := newRig(config.IO4)
	cyIO := runCore(t, rIO, streamPhase(0x100000, 64, 1, 4))
	if cyOOO*2 >= cyIO {
		t.Errorf("OOO8 (%d) should be >2x faster than IO4 (%d) on independent misses", cyOOO, cyIO)
	}
}

func TestIssueWidthBoundsThroughput(t *testing.T) {
	// All-hit loop: throughput limited by instrs/issue width.
	r := newRig(config.OOO8)
	// Warm the line.
	warm := streamPhase(0x200000, 1, 0, 1)
	runCore(t, r, warm)
	n := int64(1000)
	prog := workload.Program{Phases: []workload.Phase{{
		Name: "hot",
		Loads: []stream.Decl{{ID: 0, Name: "a", PC: 1, Affine: &stream.Affine{
			Base: 0x200000, ElemSize: 64, Strides: [3]int64{0}, Lens: [3]int64{n},
		}}},
		NumIters:      n,
		ComputeCycles: 1,
		InstrsPerIter: 16, // 2 cycles at issue width 8
	}}}
	start := r.Eng.Now()
	end := runCore(t, r, prog)
	cycles := int64(end - start)
	if cycles < n*16/8 {
		t.Errorf("ran faster than issue width allows: %d cycles for %d iters", cycles, n)
	}
	if cycles > n*16/8*3 {
		t.Errorf("issue-bound loop too slow: %d cycles", cycles)
	}
}

func TestSeqLoadsSerialize(t *testing.T) {
	// A pointer chase of depth 4 must take ~4x the latency of one miss.
	mk := func(depth int) workload.Program {
		return workload.Program{Phases: []workload.Phase{{
			Name:     "chase",
			NumIters: 1,
			SeqLoads: func(int64) []uint64 {
				var out []uint64
				for i := 0; i < depth; i++ {
					out = append(out, uint64(0x900000+i*8192))
				}
				return out
			},
			ComputeCycles: 0,
			InstrsPerIter: 4,
		}}}
	}
	r1 := newRig(config.OOO8)
	one := runCore(t, r1, mk(1))
	r4 := newRig(config.OOO8)
	four := runCore(t, r4, mk(4))
	if four < 3*one {
		t.Errorf("chain of 4 (%d) should be ~4x one miss (%d)", four, one)
	}
}

func TestIndirectDependsOnBase(t *testing.T) {
	r := newRig(config.OOO8)
	// Index array: A[i] = i*16 (pointing into B).
	aBase := r.bk.Alloc(64*4, 64)
	bBase := r.bk.Alloc(1<<20, 64)
	for i := uint64(0); i < 64; i++ {
		r.bk.WriteU32(aBase+i*4, uint32(i*1024))
	}
	prog := workload.Program{Phases: []workload.Phase{{
		Name: "ind",
		Loads: []stream.Decl{
			{ID: 0, Name: "A", PC: 1, Affine: &stream.Affine{
				Base: aBase, ElemSize: 4, Strides: [3]int64{4}, Lens: [3]int64{64}}},
			{ID: 1, Name: "B", PC: 2, BaseOn: 0,
				Indirect: &stream.Indirect{Base: bBase, ElemSize: 4, Scale: 1, WBytes: 4}},
		},
		NumIters:      64,
		ComputeCycles: 1,
		InstrsPerIter: 6,
	}}}
	runCore(t, r, prog)
	if r.St.Iterations != 64 {
		t.Fatalf("iterations = %d", r.St.Iterations)
	}
	// The indirect loads must actually touch B's scattered lines.
	if r.St.L2Misses < 64 {
		t.Errorf("expected scattered indirect misses, got %d", r.St.L2Misses)
	}
}

func TestStoresDrainBeforeBarrier(t *testing.T) {
	r := newRig(config.OOO8)
	n := int64(32)
	prog := workload.Program{Phases: []workload.Phase{{
		Name: "st",
		Stores: []stream.Decl{{ID: 0, Name: "out", PC: 3, Affine: &stream.Affine{
			Base: 0x700000, ElemSize: 64, Strides: [3]int64{64}, Lens: [3]int64{n},
		}}},
		NumIters:      n,
		ComputeCycles: 1,
		InstrsPerIter: 2,
	}}}
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	doneAt := event.Cycle(0)
	c.BeginPhase(0, func() { doneAt = r.Eng.Now() })
	r.Run()
	if doneAt == 0 {
		t.Fatal("phase incomplete")
	}
	// All 32 store lines must be owned (M) by the time the barrier fires.
	owned := 0
	for i := int64(0); i < n; i++ {
		if r.sys.PrivateHas(0, uint64(0x700000+i*64)) {
			owned++
		}
	}
	if owned != int(n) {
		t.Errorf("only %d/%d store lines present at barrier", owned, n)
	}
}

func TestEmptyPhase(t *testing.T) {
	r := newRig(config.IO4)
	prog := workload.Program{Phases: []workload.Phase{{Name: "idle"}}}
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	done := false
	c.BeginPhase(0, func() { done = true })
	r.Run()
	if !done {
		t.Fatal("empty phase must complete immediately")
	}
}

func TestMultiPhaseSequencing(t *testing.T) {
	r := newRig(config.OOO4)
	prog := workload.Program{Phases: []workload.Phase{
		streamPhase(0x100000, 10, 1, 4).Phases[0],
		streamPhase(0x180000, 10, 1, 4).Phases[0],
	}}
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	order := []int{}
	c.BeginPhase(0, func() {
		order = append(order, 0)
		c.BeginPhase(1, func() { order = append(order, 1) })
	})
	r.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("phase order = %v", order)
	}
	if r.St.Iterations != 20 {
		t.Errorf("iterations = %d", r.St.Iterations)
	}
}

func TestComputeWindowDerivation(t *testing.T) {
	cases := []struct {
		kind   config.CoreKind
		instrs int
		want   int
	}{
		{config.OOO8, 8, 28},  // 224/8
		{config.OOO8, 224, 1}, // huge body
		{config.OOO4, 8, 12},  // 96/8
		{config.IO4, 4, 2},    // in-order cap
	}
	for _, cse := range cases {
		r := newRig(cse.kind)
		prog := streamPhase(0x100000, 4, 1, cse.instrs)
		c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
		c.phase = &prog.Phases[0]
		if got := c.computeWindow(); got != cse.want {
			t.Errorf("%v instrs=%d: window = %d, want %d", cse.kind, cse.instrs, got, cse.want)
		}
	}
}

// TestLQBoundsOutstandingLoads: a wide-window OOO core must never have more
// plain loads in flight than its load queue.
func TestLQBoundsOutstandingLoads(t *testing.T) {
	r := newRig(config.OOO4) // LQ = 24
	n := int64(200)
	prog := workload.Program{Phases: []workload.Phase{{
		Name: "p",
		Loads: []stream.Decl{{ID: 0, Name: "a", PC: 1, Affine: &stream.Affine{
			Base: 0x100000, ElemSize: 64, Strides: [3]int64{8192}, Lens: [3]int64{n},
		}}},
		NumIters:      n,
		ComputeCycles: 1,
		InstrsPerIter: 2, // window = 48 > LQ
	}}}
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	done := false
	maxOut := 0
	c.BeginPhase(0, func() { done = true })
	r.RunUntil(func() bool { // sampled at every quantum boundary
		maxOut = max(maxOut, c.outLoads)
		return false
	})
	if !done {
		t.Fatal("phase incomplete")
	}
	if maxOut > r.cfg.CoreParams().LQSize {
		t.Errorf("outstanding loads peaked at %d > LQ %d", maxOut, r.cfg.CoreParams().LQSize)
	}
	if maxOut < 4 {
		t.Errorf("no memory parallelism: peak %d", maxOut)
	}
}

// TestSQBoundsOutstandingStores: stores respect the store-queue bound.
func TestSQBoundsOutstandingStores(t *testing.T) {
	r := newRig(config.IO4) // SQ = 10
	n := int64(100)
	prog := workload.Program{Phases: []workload.Phase{{
		Name: "p",
		Stores: []stream.Decl{{ID: 0, Name: "o", PC: 2, Affine: &stream.Affine{
			Base: 0x800000, ElemSize: 64, Strides: [3]int64{8192}, Lens: [3]int64{n},
		}}},
		NumIters:      n,
		ComputeCycles: 0,
		InstrsPerIter: 1,
	}}}
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	done := false
	c.BeginPhase(0, func() { done = true })
	r.Run()
	if !done {
		t.Fatalf("phase incomplete: %s", c.Progress())
	}
	if c.storeQ.len() != 0 || c.outStores != 0 {
		t.Error("store queue not drained")
	}
}

// TestInOrderSlowerThanOOOOnChase: dependent chains equalize the cores;
// independent loads do not. This pins the window semantics.
func TestWindowSemantics(t *testing.T) {
	chase := func(kind config.CoreKind) event.Cycle {
		r := newRig(kind)
		prog := workload.Program{Phases: []workload.Phase{{
			Name:     "p",
			NumIters: 16,
			SeqLoads: func(i int64) []uint64 {
				return []uint64{uint64(0x900000 + i*8192)}
			},
			ComputeCycles: 200, // long serial compute dominates
			InstrsPerIter: 100,
		}}}
		return runCoreProg(t, r, prog)
	}
	io, ooo := chase(config.IO4), chase(config.OOO8)
	// With a 100-instruction body the OOO8 window is only 2; both cores are
	// mostly serialized by compute, so the gap must be modest (< 4x).
	if ooo*4 < io {
		t.Errorf("window semantics off: IO4=%d OOO8=%d", io, ooo)
	}
}

func runCoreProg(t *testing.T, r *rig, prog workload.Program) event.Cycle {
	t.Helper()
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	done := false
	c.BeginPhase(0, func() { done = true })
	r.Run()
	if !done {
		t.Fatal("phase incomplete")
	}
	return r.Eng.Now()
}

// indirectStorePhase is a one-phase program with an affine index stream A, an
// indirect stream B chained on it (scattered over 4 MB, so B mostly misses)
// and an affine store stream.
func indirectStorePhase(bk *mem.Backing, n int64) workload.Program {
	aBase := bk.Alloc(uint64(n)*4, 64)
	bBase := bk.Alloc(1<<22, 64)
	outBase := bk.Alloc(uint64(n)*64, 64)
	for i := int64(0); i < n; i++ {
		bk.WriteU32(aBase+uint64(i)*4, uint32(i*7919%(1<<16))*64)
	}
	return workload.Program{Phases: []workload.Phase{{
		Name: "ind-store",
		Loads: []stream.Decl{
			{ID: 0, Name: "A", PC: 1, Affine: &stream.Affine{
				Base: aBase, ElemSize: 4, Strides: [3]int64{4}, Lens: [3]int64{n}}},
			{ID: 1, Name: "B", PC: 2, BaseOn: 0,
				Indirect: &stream.Indirect{Base: bBase, ElemSize: 4, Scale: 1, WBytes: 4}},
		},
		Stores: []stream.Decl{{ID: 2, Name: "out", PC: 3, Affine: &stream.Affine{
			Base: outBase, ElemSize: 64, Strides: [3]int64{64}, Lens: [3]int64{n},
		}}},
		NumIters:      n,
		ComputeCycles: 2,
		InstrsPerIter: 8,
	}}}
}

// TestIterationZeroAlloc: once its freelists are warm, a plain core runs an
// iteration — an affine load, an indirect load chained on it, a store, every
// miss they cause down to DRAM — without allocating.
func TestIterationZeroAlloc(t *testing.T) {
	r := newRig(config.OOO8)
	prog := indirectStorePhase(r.bk, 8192)
	c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
	done := false
	c.BeginPhase(0, func() { done = true })
	var target int64
	reached := func() bool { return c.retired >= target }
	advance := func(iters int64) {
		target = c.retired + iters
		if r.RunUntil(reached); !reached() {
			t.Fatalf("event queue drained mid-phase: %s", c.Progress())
		}
	}
	advance(4096) // past the point where in-flight records stop reaching new highs
	missesBefore := r.St.L2Misses
	const perRun, runs = 128, 20
	// Group.Run has a small fixed cost per call; the iterations must add nothing.
	base := testing.AllocsPerRun(runs, func() { advance(0) })
	if avg := testing.AllocsPerRun(runs, func() { advance(perRun) }); avg != base {
		t.Errorf("%d iterations allocate %v times over an empty run's %v, want 0", perRun, avg-base, base)
	}
	if got := r.St.L2Misses - missesBefore; got < perRun*runs {
		t.Errorf("measured iterations caused only %d L2 misses: the miss path was not exercised", got)
	}
	r.Run()
	if !done {
		t.Fatalf("phase did not complete: %s", c.Progress())
	}
}

// TestAccessOrderUnderLQ1 pins the issue order the per-iteration closures
// used to encode, now spread over iterOp/loadOp and the load queue: with a
// one-entry load queue, two overlapped iterations of an affine base A, two
// indirect loads chained on it (B declared before A, C after) and a 3-long
// pointer chase reach cache.System.Access in exactly this order at exactly
// these cycles. The table was captured from the closure implementation
// (commit 273d5d5) on this same 2x2 system; the L1 observer fires one L1
// latency after Access, which is subtracted.
func TestAccessOrderUnderLQ1(t *testing.T) {
	cfg := config.Default()
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Core = config.OOO8
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRigCfg(cfg)
	eng, sys, bk := r.Eng, r.sys, r.bk

	const iters = 2
	aBase := bk.Alloc(64, 64)
	bBase := bk.Alloc(1<<16, 64)
	cBase := bk.Alloc(1<<16, 64)
	bk.WriteU32(aBase, 0x1040)
	bk.WriteU32(aBase+4, 0x2080)
	prog := workload.Program{Phases: []workload.Phase{{
		Name: "order",
		Loads: []stream.Decl{
			{ID: 0, Name: "B", PC: 2, BaseOn: 1,
				Indirect: &stream.Indirect{Base: bBase, ElemSize: 4, Scale: 1, WBytes: 4}},
			{ID: 1, Name: "A", PC: 1, Affine: &stream.Affine{
				Base: aBase, ElemSize: 4, Strides: [3]int64{4}, Lens: [3]int64{iters}}},
			{ID: 2, Name: "C", PC: 3, BaseOn: 1,
				Indirect: &stream.Indirect{Base: cBase, ElemSize: 4, Scale: 2, WBytes: 4}},
		},
		SeqLoads: func(i int64) []uint64 {
			base := uint64(0x900000 + i*0x10000)
			return []uint64{base, base + 0x2000, base + 0x4000}
		},
		NumIters:      iters,
		ComputeCycles: 3,
		InstrsPerIter: 8,
	}}}
	params := cfg.CoreParams()
	params.LQSize = 1
	type access struct {
		cycle event.Cycle
		addr  uint64
	}
	var got []access
	sys.SetL1Observer(func(_ int, addr uint64, _ uint32, _ bool) {
		got = append(got, access{eng.Now() - event.Cycle(cfg.L1.LatCycles), addr})
	})
	c := NewCore(0, eng, r.St, params, sys, bk, nil, &prog)
	done := false
	var end event.Cycle
	c.BeginPhase(0, func() { done, end = true, eng.Now() })
	r.Run()
	if !done {
		t.Fatalf("phase did not complete: %s", c.Progress())
	}
	want := []access{
		{0, 0x100000},    // A[0]
		{162, 0x900000},  // chase 0, element 0
		{324, 0x100004},  // A[1]
		{326, 0x910000},  // chase 1, element 0
		{488, 0x101080},  // B on A[0]
		{686, 0x1120c0},  // C on A[0]
		{884, 0x902000},  // chase 0, element 1
		{1058, 0x1020c0}, // B on A[1]
		{1256, 0x114140}, // C on A[1]
		{1442, 0x912000}, // chase 1, element 1
		{1616, 0x904000}, // chase 0, element 2
		{1778, 0x914000}, // chase 1, element 2
	}
	if !slices.Equal(got, want) {
		t.Errorf("access order changed:\n got %v\nwant %v", got, want)
	}
	if end != 1943 {
		t.Errorf("phase ended at cycle %d, want 1943", end)
	}
}

// TestOpLifecycleProbe: with the sanitizer attached, a phase cannot end while
// an iteration, load or store record is still out, and returning a record
// twice trips at the second put.
func TestOpLifecycleProbe(t *testing.T) {
	sanitized := func() (*rig, *Core) {
		r := newRig(config.OOO8)
		prog := indirectStorePhase(r.bk, 64)
		c := NewCore(0, r.Eng, r.St, r.cfg.CoreParams(), r.sys, r.bk, nil, &prog)
		c.SetChecker(sanitize.New(64))
		return r, c
	}
	expectViolation := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			v, ok := recover().(*sanitize.Violation)
			if !ok {
				t.Fatalf("no sanitizer violation, want one mentioning %q", want)
			}
			if !strings.Contains(v.Error(), want) {
				t.Errorf("violation does not mention %q:\n%s", want, v.Error())
			}
		}()
		fn()
	}
	run := func(r *rig, c *Core) func() {
		return func() {
			c.BeginPhase(0, func() {})
			r.Run()
		}
	}

	t.Run("clean", func(t *testing.T) {
		r, c := sanitized()
		done := false
		c.BeginPhase(0, func() { done = true })
		r.Run()
		if !done {
			t.Fatalf("phase did not complete: %s", c.Progress())
		}
	})
	leaks := map[string]func(*Core){
		"1 iterOp":  func(c *Core) { c.getIter(0).issuing = false },
		"1 loadOp":  func(c *Core) { c.getLoad(nil, 0, 0, 0) },
		"1 storeOp": func(c *Core) { c.getStore() },
	}
	for want, leak := range leaks {
		t.Run("leak "+want, func(t *testing.T) {
			r, c := sanitized()
			leak(c)
			expectViolation(t, want, run(r, c))
		})
	}
	twice := map[string]func(*Core){
		"iterOp":  func(c *Core) { it := c.getIter(0); c.putIter(it); c.putIter(it) },
		"loadOp":  func(c *Core) { op := c.getLoad(nil, 0, 0, 0); c.putLoad(op); c.putLoad(op) },
		"storeOp": func(c *Core) { op := c.getStore(); c.putStore(op); c.putStore(op) },
	}
	for what, put := range twice {
		t.Run("double put "+what, func(t *testing.T) {
			_, c := sanitized()
			expectViolation(t, what+" to its freelist twice", func() { put(c) })
		})
	}
}

// TestOpQueueStaysBounded: a queue that is pushed as fast as it is popped and
// never runs empty keeps FIFO order and a backing array the size of its
// backlog, not of everything that ever passed through it.
func TestOpQueueStaysBounded(t *testing.T) {
	var q opQueue[int]
	vals := make([]int, 10_000)
	next := 0
	for i := range vals {
		vals[i] = i
		q.push(&vals[i])
		if i >= 8 { // backlog of 8
			if got := *q.pop(); got != next {
				t.Fatalf("pop %d = %d, want FIFO order", next, got)
			}
			next++
		}
	}
	if q.len() != 8 || cap(q.ops) > 64 {
		t.Errorf("backlog %d in an array of %d, want 8 in a few dozen", q.len(), cap(q.ops))
	}
	for q.len() > 0 {
		if got := *q.pop(); got != next {
			t.Fatalf("pop %d = %d, want FIFO order", next, got)
		}
		next++
	}
	if q.head != 0 || len(q.ops) != 0 {
		t.Errorf("an emptied queue restarts at the front: head %d len %d", q.head, len(q.ops))
	}
}
