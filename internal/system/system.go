// Package system assembles the full simulated machine — tiles (core + L1 +
// L2 + SEcore/SE_L2), shared L3 banks with SE_L3, mesh NoC, DRAM controllers
// and prefetchers — and runs a benchmark to completion with OpenMP-style
// barriers between phases.
package system

import (
	"context"
	"fmt"

	score "streamfloat/internal/core"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/cpu"
	"streamfloat/internal/energy"
	"streamfloat/internal/event"
	"streamfloat/internal/fault"
	"streamfloat/internal/mem"
	"streamfloat/internal/noc"
	"streamfloat/internal/par"
	"streamfloat/internal/prefetch"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/trace"
	"streamfloat/internal/workload"
)

// Results is the outcome of one simulation run.
type Results struct {
	Benchmark string
	Config    config.Config
	Stats     stats.Stats
	NumLinks  int
}

// Machine is a fully wired simulated system ready to run one benchmark.
type Machine struct {
	Cfg config.Config
	// Eng is an idle root engine: nothing is ever scheduled on it (every
	// event runs on a shard's engine). It is kept because callers sum
	// Fired() over it and Shards.
	Eng *event.Engine
	// St holds the run's totals: RunContext folds every shard's counters
	// into it once the run completes.
	St      *stats.Stats
	Mesh    *noc.Mesh
	DRAM    *mem.DRAM
	Caches  *cache.System
	Backing *mem.Backing
	Engines *score.Engines
	Cores   []*cpu.Core

	// Chk is the runtime sanitizer attached to every component, or nil when
	// cfg.Sanitize resolves to off. One checker per machine: parallel
	// experiment sweeps each own their books, so -race stays quiet.
	Chk *sanitize.Checker

	// Tr is the structured tracer attached via AttachTracer, or nil when
	// tracing is off (the default — tracing is opt-in per machine).
	Tr *trace.Tracer

	// phaseHook, when set, fires as each phase completes (all cores at the
	// barrier, before barrier latency is applied) with the completion cycle
	// and a snapshot of the statistics. Sampled simulation uses it to
	// attribute cycles and counters to warmup vs. measured phases.
	phaseHook func(phase int, now event.Cycle, snap stats.Stats)

	// Shards is the tile partition of the event kernel. Each shard owns a
	// subset of tiles, a private engine and private stats; group drives them
	// in barrier-synchronized quanta of one NoC lookahead. There is one shard
	// per effective worker (see BuildPrepared), and the barrier order names
	// no shard, so results are bit-identical for every layout and every
	// worker count.
	Shards []*par.Shard
	group  *par.Group
	lay    *par.Layout

	// remaining counts cores yet to reach the current phase barrier; it is
	// only touched by barrier ops.
	remaining int

	bench     string
	numPhases int
}

// SetPhaseHook installs the per-phase completion observer. Call before Run;
// nil detaches. Purely observational.
func (m *Machine) SetPhaseHook(fn func(phase int, now event.Cycle, snap stats.Stats)) {
	m.phaseHook = fn
}

// PollEvery calls fn about every period cycles in barrier context — every
// engine quiescent and agreeing on the cycle — with that cycle and the merged
// counters, until fn returns false. Call before Run. The ticks ride tile 0's
// engine and op log like the phase wakeups, so a polled run is deterministic
// and layout-invariant, but its ticks open quanta of their own: it is not
// the schedule of the unpolled run. Sampled simulation uses it to snapshot
// the machine as iteration thresholds are crossed.
func (m *Machine) PollEvery(period event.Cycle, fn func(now event.Cycle, snap stats.Stats) bool) {
	eng := m.lay.Eng(0)
	var tick func(event.Cycle)
	atBarrier := func(event.Cycle, any) {
		if fn(m.now(), m.statsSnapshot()) {
			eng.Schedule(period, tick)
		}
	}
	tick = func(event.Cycle) { m.lay.Defer(0, atBarrier, nil) }
	eng.Schedule(period, tick)
}

// NewTracer sizes a tracer for a machine configuration. label names the
// run in exports (e.g. "SF/OOO8"); ringDepth 0 picks the default.
func NewTracer(cfg config.Config, bench, label string, ringDepth int) *trace.Tracer {
	return trace.New(trace.Config{
		Tiles: cfg.Tiles(), MeshW: cfg.MeshWidth, MeshH: cfg.MeshHeight,
		RingDepth: ringDepth, L3LatCycles: cfg.L3.LatCycles,
		Benchmark: bench, Label: label,
	})
}

// AttachTracer wires the tracer into every component. Call before Run; nil
// detaches. Tracing is purely observational — the event schedule, stats and
// results are identical with it on or off.
func (m *Machine) AttachTracer(tr *trace.Tracer) {
	m.Tr = tr
	m.Mesh.SetTracer(tr)
	m.Caches.SetTracer(tr)
	if m.Engines != nil {
		m.Engines.SetTracer(tr)
	}
	for _, c := range m.Cores {
		c.SetTracer(tr)
	}
}

// Build constructs the machine for cfg and prepares the named benchmark at
// the given dataset scale.
func Build(cfg config.Config, bench string, scale float64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	kernel, err := workload.New(bench)
	if err != nil {
		return nil, err
	}
	bk := mem.NewBacking()
	progs := kernel.Prepare(bk, cfg.Tiles(), scale)
	return BuildPrepared(cfg, bench, bk, progs)
}

// layoutShards, when non-zero, overrides the shard count of every machine
// built. Only tests set it (export_test.go), to hold results invariant
// across layouts; production always builds one shard per effective worker.
var layoutShards int

// BuildPrepared constructs the machine around an already-prepared workload:
// a populated backing store and per-core programs. It is the entry point for
// callers that rewrite programs before simulation — the sampled-simulation
// planner slices each phase's iteration space and shares one backing store
// across the per-interval machines (detailed runs never mutate the backing;
// stores are timing-only). Build delegates here after preparing the named
// kernel itself.
func BuildPrepared(cfg config.Config, bench string, bk *mem.Backing, progs []workload.Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One layout rule for every machine, sanitized, traced, 2x2 or 8x8: one
	// barrier-drained shard per effective worker. The layout is a host
	// decision, like the worker count it follows, and cannot reach the result
	// because the barrier drains every cross-tile effect in (cycle, tile,
	// issue) order whatever shard logged it (TestShardLayoutInvariance). At
	// Workers=1, and always below 16 tiles, the whole machine is one shard on
	// one engine. The sanitizer only adds probes (TestSanitizeInvariance), so
	// neither it nor Workers is part of the cache key.
	numShards := par.EffectiveWorkers(cfg.Workers, par.ShardsFor(cfg.Tiles()))
	if layoutShards != 0 {
		numShards = layoutShards
	}
	lay := par.NewLayout(cfg.Tiles(), numShards)

	mesh := noc.New(lay, cfg.MeshWidth, cfg.MeshHeight, cfg.LinkBits, cfg.RouterLatency, cfg.LinkLatency)
	dram := mem.NewDRAM(lay, cfg.DRAMLatency, cfg.DRAMBandwidthBpc, cfg.MemControllerTiles())
	caches := cache.NewSystem(lay, cfg, mesh, dram)

	if len(progs) != cfg.Tiles() {
		return nil, fmt.Errorf("system: %s produced %d programs for %d cores", bench, len(progs), cfg.Tiles())
	}
	numPhases := len(progs[0].Phases)
	for i := range progs {
		if err := progs[i].Validate(); err != nil {
			return nil, fmt.Errorf("system: %s core %d: %w", bench, i, err)
		}
		if len(progs[i].Phases) != numPhases {
			return nil, fmt.Errorf("system: %s core %d has %d phases, core 0 has %d (barrier misalignment)",
				bench, i, len(progs[i].Phases), numPhases)
		}
	}

	m := &Machine{
		Cfg: cfg, Eng: event.New(), St: &stats.Stats{}, Mesh: mesh, DRAM: dram,
		Caches: caches, Backing: bk, bench: bench, numPhases: numPhases,
		Shards: lay.Shards, lay: lay,
		group: &par.Group{
			Shards:  lay.Shards,
			Quantum: mesh.Lookahead(),
			Labels:  []string{"benchmark", bench},
		},
	}

	prefetch.Attach(cfg, caches)

	var se cpu.StreamSource
	if cfg.Stream != config.StreamOff {
		m.Engines = score.NewEngines(lay, cfg, mesh, caches, bk)
		se = m.Engines
	}

	params := cfg.CoreParams()
	m.Cores = make([]*cpu.Core, cfg.Tiles())
	for i := 0; i < cfg.Tiles(); i++ {
		p := progs[i]
		m.Cores[i] = cpu.NewCore(i, lay.Eng(i), lay.St(i), params, caches, bk, se, &p)
	}

	if cfg.SanitizeEnabled() {
		chk := sanitize.New(sanitize.DefaultDepth)
		m.Chk = chk
		for _, sh := range lay.Shards {
			sh.Eng.SetChecker(chk)
		}
		mesh.SetChecker(chk)
		caches.SetChecker(chk)
		if m.Engines != nil {
			m.Engines.SetChecker(chk)
		}
		for _, c := range m.Cores {
			c.SetChecker(chk)
		}
	}
	return m, nil
}

// Audit runs the end-of-simulation sanitizer sweeps: cache/directory
// consistency, NoC flit conservation, and stream-engine teardown residue.
// It panics with a *sanitize.Violation on the first inconsistency and is a
// no-op when the sanitizer is off.
func (m *Machine) Audit() {
	if m.Chk == nil {
		return
	}
	m.Caches.Audit()
	m.Mesh.Audit(m.St)
	if m.Engines != nil {
		m.Engines.Audit()
	}
}

// SetRunLabels appends pprof labels (key-value pairs) to the parallel worker
// goroutines, e.g. the figure, benchmark and configuration being simulated.
// Call before Run.
func (m *Machine) SetRunLabels(kv ...string) {
	m.group.Labels = append(m.group.Labels, kv...)
}

// now returns the current simulated cycle: the furthest shard engine (all
// engines agree at quantum barriers).
func (m *Machine) now() event.Cycle {
	var n event.Cycle
	for _, sh := range m.Shards {
		if t := sh.Eng.Now(); t > n {
			n = t
		}
	}
	return n
}

// fired sums fired-event counts across every shard engine. Called from the
// event loop's stop poll, when all engines are quiescent.
func (m *Machine) fired() uint64 {
	var n uint64
	for _, sh := range m.Shards {
		n += sh.Eng.Fired()
	}
	return n
}

// pending sums outstanding events across every shard engine.
func (m *Machine) pending() int {
	n := 0
	for _, sh := range m.Shards {
		n += sh.Eng.Pending()
	}
	return n
}

// statsSnapshot returns the running machine's counter totals: every shard's
// (the root St holds nothing until RunContext's final fold). Only called with
// all engines quiescent.
func (m *Machine) statsSnapshot() stats.Stats {
	s := *m.Shards[0].St
	for _, sh := range m.Shards[1:] {
		s.Merge(sh.St)
	}
	return s
}

// barrierLatency models the OpenMP barrier between phases: a reduce +
// broadcast across the mesh diameter.
func (m *Machine) barrierLatency() event.Cycle {
	hop := m.Cfg.RouterLatency + m.Cfg.LinkLatency
	return event.Cycle(2 * (m.Cfg.MeshWidth + m.Cfg.MeshHeight) * hop)
}

// Run executes the benchmark to completion and returns the collected
// statistics. maxCycles bounds the simulation (0 picks a generous default);
// exceeding it, or an event-queue drain before completion, is reported as
// an error (deadlock/livelock detection).
func (m *Machine) Run(maxCycles event.Cycle) (Results, error) {
	return m.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cancellation: the event loop polls ctx once per
// quantum and abandons the simulation — returning ctx's error — as soon as it
// is cancelled or times out. The poll schedules nothing, so cancellable and
// plain runs are the same simulation.
func (m *Machine) RunContext(ctx context.Context, maxCycles event.Cycle) (Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxCycles == 0 {
		maxCycles = 4_000_000_000
	}
	finished := false
	var runPhase func(k int)
	// advance fires when the last core reaches the phase-k barrier. It runs
	// at the quantum-barrier drain, with every engine quiescent, so it may
	// observe merged stats and fan the next phase out to all cores' engines.
	advance := func(k int) {
		if m.phaseHook != nil {
			m.phaseHook(k, m.now(), m.statsSnapshot())
		}
		if m.Tr != nil {
			m.Tr.Emit(uint64(m.now()), 0, trace.KindBarrier, 0,
				int64(k), int64(m.barrierLatency()))
		}
		// The delayed phase start must itself cross a quantum barrier,
		// because starting a phase touches every shard's engine. Schedule
		// the wakeup on tile 0's engine and re-home the fan-out via its op
		// log.
		m.lay.Eng(0).Schedule(m.barrierLatency(), func(event.Cycle) {
			m.lay.Defer(0, func(event.Cycle, any) { runPhase(k + 1) }, nil)
		})
	}
	runPhase = func(k int) {
		if k >= m.numPhases {
			finished = true
			return
		}
		m.remaining = len(m.Cores)
		for i, c := range m.Cores {
			// The completion callback fires inside the core's own window;
			// the shared countdown is routed through the barrier so it stays
			// single-threaded and canonically ordered.
			tile := i
			c.BeginPhase(k, func() {
				m.lay.Defer(tile, func(event.Cycle, any) {
					m.remaining--
					if m.remaining == 0 {
						advance(k)
					}
				}, nil)
			})
		}
	}
	if m.numPhases == 0 {
		finished = true
	} else {
		runPhase(0)
	}
	// The watchdog's heartbeat (if a fault.Guard installed one on ctx) is
	// published from the same stop closure the loop already polls once per
	// quantum, so progress reporting costs nothing extra on the hot path.
	hb := fault.HeartbeatFrom(ctx)
	var stop func() bool
	if done := ctx.Done(); done != nil || hb != nil {
		stop = func() bool {
			hb.Publish(m.fired(), uint64(m.now()))
			if done == nil {
				return false
			}
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	m.group.Workers = m.Cfg.Workers
	if m.Tr != nil || m.Chk != nil {
		// The tracer's ring and the checker's books are shared across tiles:
		// drive whatever layout was built with one goroutine.
		m.group.Workers = 1
	}
	stopped, gerr := m.group.Run(maxCycles, stop)
	if gerr != nil {
		return Results{}, fmt.Errorf("system: %s: shard worker failure: %w", m.bench, gerr)
	}
	if stopped {
		return Results{}, fmt.Errorf("system: %s cancelled at cycle %d: %w", m.bench, m.now(), ctx.Err())
	}
	if !finished {
		if m.pending() == 0 {
			return Results{}, fmt.Errorf("system: %s deadlocked at cycle %d (event queue drained mid-phase)",
				m.bench, m.now())
		}
		return Results{}, fmt.Errorf("system: %s exceeded %d cycles", m.bench, maxCycles)
	}
	// Fold the per-shard counters into the root stats before the audits:
	// flit conservation compares the sanitizer's books against the merged
	// totals, and the energy model and results read them from m.St.
	for _, sh := range m.Shards {
		m.St.Merge(sh.St)
		*sh.St = stats.Stats{}
	}
	// Conservation audits only make sense on a fully drained machine: a
	// horizon break leaves legitimate in-flight messages behind.
	if m.pending() == 0 {
		m.Audit()
	}
	m.St.Cycles = uint64(m.now())
	energy.Apply(m.St, m.Cfg)
	if m.Tr != nil {
		m.Tr.FinishRun(m.St.Cycles)
	}
	return Results{
		Benchmark: m.bench,
		Config:    m.Cfg,
		Stats:     *m.St,
		NumLinks:  m.Mesh.NumLinks(),
	}, nil
}

// Release recycles the machine's bulk state (the cache arrays' line slabs)
// into the next machine built in this process, which is most of what a short
// sweep point would otherwise allocate and zero. It is an optimisation, never
// an obligation: call it only after a Run that returned normally — a
// cancelled, failed or panicking machine may still have goroutines or
// in-flight events touching its arrays and is simply left to the GC — and
// only when nothing will look at the machine again. A released machine's
// arrays are nil, so use-after-release panics instead of reading another
// point's state.
func (m *Machine) Release() { m.Caches.Release() }

// RunBenchmark is the one-call helper: build, run, release. ctx cancels the
// simulation mid-flight (see RunContext); pass context.Background() for an
// unconditional run.
func RunBenchmark(ctx context.Context, cfg config.Config, bench string, scale float64) (Results, error) {
	m, err := Build(cfg, bench, scale)
	if err != nil {
		return Results{}, err
	}
	res, err := m.RunContext(ctx, 0)
	if err != nil {
		return Results{}, err
	}
	m.Release()
	return res, nil
}

// RunBenchmarkTraced builds and runs one benchmark with tracing on,
// returning the results alongside the finished tracer. ctx cancels the
// simulation mid-flight, as for RunBenchmark.
func RunBenchmarkTraced(ctx context.Context, cfg config.Config, bench, label string, scale float64) (Results, *trace.Tracer, error) {
	m, err := Build(cfg, bench, scale)
	if err != nil {
		return Results{}, nil, err
	}
	tr := NewTracer(cfg, bench, label, 0)
	m.AttachTracer(tr)
	res, err := m.RunContext(ctx, 0)
	if err != nil {
		return Results{}, nil, err
	}
	m.Release()
	return res, tr, nil
}
