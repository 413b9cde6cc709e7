// Package experiments regenerates every table and figure of the paper's
// motivation and evaluation sections. Each runner sweeps the relevant
// configurations over the benchmark suite and reports the same rows/series
// the paper presents (normalized the same way). Runs execute in parallel
// across OS threads; each individual simulation is deterministic.
//
// ByName, All, AllTables and WriteFigureCSVs are the only entry points. All
// four reach a runner through runFigure, which folds the sampled-sweep
// confidence intervals, keep-going failures and the sweep-parallelism derate
// note into every table.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/energy"
	"streamfloat/internal/fault"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/system"
	"streamfloat/internal/workload"
)

// Options selects the sweep size.
type Options struct {
	// Scale is the dataset scale factor (1.0 = calibrated defaults).
	Scale float64
	// Benchmarks restricts the suite (nil = all 12).
	Benchmarks []string
	// Parallelism bounds concurrent simulations (0 or negative = GOMAXPROCS).
	Parallelism int
	// Workers sets every simulation's parallel worker count (config.Workers):
	// how many goroutines drive a machine's tile shards. 0 or 1 runs each
	// simulation as one shard on one goroutine. Results are bit-identical
	// for every value; the sweep's effective parallelism is derated so that
	// Parallelism x Workers never oversubscribes GOMAXPROCS.
	Workers int
	// Sanitize sets every simulation's runtime invariant checking: the zero
	// value (auto) turns probes on inside test binaries and off elsewhere.
	Sanitize sanitize.Mode
	// Sample switches every simulation of the sweep to the sampled
	// estimator (internal/sample) when enabled: each point simulates only a
	// clustered block of measured intervals in detail and extrapolates the
	// rest, trading a bounded confidence interval for a >=3x work
	// reduction. The zero value keeps full-fidelity simulation. Sampled and
	// full points never share cache keys (the canonical encoding includes
	// the resolved parameters).
	Sample config.SampleParams
	// Context cancels an in-flight sweep: the first simulation error or a
	// caller cancel stops scheduling new simulations and aborts running ones
	// at their next event-loop cancellation check. nil means Background.
	Context context.Context
	// Cache, when non-nil, memoizes simulation results by their canonical
	// content-address (system.CacheKey): identical (config, benchmark,
	// scale) points are served from the cache instead of re-simulating, and
	// concurrent identical requests share one simulation.
	Cache ResultCache
	// Progress, when non-nil, receives a snapshot after every point start
	// and completion: cumulative started/completed/cached/failed counts, the
	// point's canonical cache key, and an estimated remaining wall time
	// derived from observed per-point wall times. The serve job layer uses
	// it for async job status.
	Progress ProgressFunc
	// KeepGoing completes the sweep with failed points marked instead of
	// cancelling the fan-out on the first failure: failures are listed in
	// Table.Failures and as table footnotes, failed points contribute zero
	// Results to derived metrics, and the sweep only errors when the
	// caller's context is cancelled or every point failed.
	KeepGoing bool
	// PointTimeout bounds each point's wall-clock time; past it the point is
	// cancelled and fails with a timeout PointError. 0 disables the deadline.
	PointTimeout time.Duration
	// StallTimeout arms the per-point stall watchdog: a point whose event
	// loop stops advancing simulated time for this long — hung before its
	// loop, or livelocked inside it — is cancelled and fails with a stuck
	// timeout PointError. 0 disables the watchdog. See fault.Guard.
	StallTimeout time.Duration

	// figure names the figure being regenerated, for pprof labels on the
	// sweep's goroutines. Set by runFigure; ad-hoc runAll callers show up
	// as "adhoc".
	figure string
	// estimates and failures collect the per-point sampled estimates and
	// keep-going failures of one figure's sweep. runFigure provisions them
	// (for sampled and keep-going sweeps respectively) and folds them into
	// the table; nil logs discard records.
	estimates *pointLog[PointEstimate]
	failures  *pointLog[PointFailure]
}

// figureLabel resolves the pprof figure label.
func (o Options) figureLabel() string {
	if o.figure == "" {
		return "adhoc"
	}
	return o.figure
}

// ResultCache memoizes deterministic simulation results by canonical key.
// Implementations must deduplicate concurrent calls with the same key
// (singleflight) and may persist results across processes; serve.Store is
// the canonical implementation.
type ResultCache interface {
	// Do returns the cached Results for key, or runs compute (once across
	// all concurrent callers of the key), caches its result and returns it.
	// ctx bounds this caller's wait; compute errors are not cached.
	Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error)
}

// PointCache is an optional ResultCache extension for implementations that
// need the full simulation point, not just its opaque key — a cluster client
// shipping the job to a remote sfserve backend cannot reconstruct the
// configuration from a hash. When opts.Cache implements it, runAll calls
// DoPoint instead of Do; cluster.Client is the canonical implementation.
type PointCache interface {
	ResultCache
	// DoPoint behaves like Do for the point identified by key, which the
	// caller guarantees equals system.CacheKey(cfg, bench, scale). compute
	// runs the point locally and is the implementation's degraded path.
	DoPoint(ctx context.Context, key string, cfg config.Config, bench string, scale float64, compute func() (system.Results, error)) (system.Results, error)
}

// context resolves the sweep context, defaulting to Background.
func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// workers resolves the per-simulation worker count (min 1).
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// rawParallelism resolves the requested concurrency bound, clamping zero and
// negative values to GOMAXPROCS.
func (o Options) rawParallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// parallelism resolves the effective sweep concurrency: the requested bound,
// derated by the per-simulation worker count so that concurrent sweeps times
// shard workers never oversubscribes GOMAXPROCS (oversubscription makes the
// spin-barrier quanta of the parallel kernel actively harmful).
func (o Options) parallelism() int {
	p := o.rawParallelism()
	if w := o.workers(); w > 1 {
		if procs := runtime.GOMAXPROCS(0); p*w > procs {
			p = procs / w
			if p < 1 {
				p = 1
			}
		}
	}
	return p
}

// derateNote describes the oversubscription derate when it applies, or "".
func (o Options) derateNote() string {
	raw, eff := o.rawParallelism(), o.parallelism()
	if eff >= raw {
		return ""
	}
	return fmt.Sprintf("sweep parallelism derated %d -> %d: %d workers/simulation x %d sweeps fits GOMAXPROCS=%d",
		raw, eff, o.workers(), eff, runtime.GOMAXPROCS(0))
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.25
	}
	return o.Scale
}

// Table is one regenerated figure/table, ready for text rendering.
// Metrics carries the headline numbers in machine-readable form (used by
// the bench harness to report them).
type Table struct {
	Title   string             `json:"title"`
	Header  []string           `json:"header"`
	Rows    [][]string         `json:"rows"`
	Notes   []string           `json:"notes,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Sampling summarises the sampled-simulation run behind the table —
	// parameters, per-point estimates with confidence intervals, and the
	// worst relative CI — when the sweep ran with Options.Sample enabled
	// and computed at least one fresh point.
	Sampling *SamplingSummary `json:"sampling,omitempty"`
	// Failures lists the points that failed under a keep-going sweep
	// (Options.KeepGoing); those points contributed zero Results to the
	// table's derived metrics and are called out in Notes.
	Failures []PointFailure `json:"failures,omitempty"`
}

func (t *Table) metric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	t.Metrics[name] = v
}

// Fprint renders the table with aligned columns. Rows wider than the header
// keep their extra cells (rendered in unpadded columns), matching WriteCSV.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintln(w)
}

// runKey identifies one simulation in a sweep.
type runKey struct {
	bench  string
	system string
	core   config.CoreKind
	mutate func(*config.Config)
}

// variant tells mutated points (Fig15's prefetcher variants, Fig16's link
// sweeps, ...) apart from plain ones that share bench/system/core in
// per-point records.
func (k runKey) variant() string {
	if k.mutate != nil {
		return "mutated"
	}
	return ""
}

// testFaultHook, when non-nil, runs at the top of every computed point's
// guarded simulation closure. Tests use it to inject deterministic faults
// (panics, hangs) into chosen points without touching the simulator; it is
// never set outside _test.go files.
var testFaultHook func(bench, system string, core config.CoreKind)

// fanOut runs n tasks with bounded concurrency, pprof goroutine labels, and
// panic containment: a panic escaping work is recovered into a structured
// *fault.PointError instead of killing the process. labels(i) returns the
// pprof key-value pairs for task i; the labels are inherited by everything
// the task spawns, including the parallel kernel's shard workers. When
// cancelOnErr, the first failure cancels the remaining tasks — queued ones
// never start, in-flight ones abort at their next cancellation check;
// otherwise every task runs to completion regardless of failures. The
// caller's ctx cancels the fan-out either way.
func fanOut(ctx context.Context, par, n int, cancelOnErr bool, labels func(i int) []string, work func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pprof.Do(ctx, pprof.Labels(labels(i)...), func(ctx context.Context) {
				errs[i] = fault.Capture("", func() error { return work(ctx, i) })
			})
			if errs[i] != nil && cancelOnErr {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return errs
}

// runAll executes the given runs in parallel and returns results in input
// order. By default the sweep is fail-fast: the first simulation error (or a
// cancel of ctx) cancels every other simulation — queued runs never start,
// and in-flight ones abort at their next event-loop cancellation check — so
// a failing sweep returns promptly instead of burning the rest of the
// fan-out to completion. Under opts.KeepGoing the fan-out instead runs to
// completion with failures recorded in opts.failures (see keepGoingError).
// With opts.Cache set, each point is served from the result cache by
// canonical key (concurrent identical points share one simulation).
func runAll(ctx context.Context, opts Options, keys []runKey) ([]system.Results, error) {
	par := opts.parallelism()
	results := make([]system.Results, len(keys))
	prog := newProgressTracker(opts.Progress, len(keys), par)
	errs := fanOut(ctx, par, len(keys), !opts.KeepGoing, func(i int) []string {
		return []string{
			"figure", opts.figureLabel(),
			"benchmark", keys[i].bench,
			"config", keys[i].system + "/" + keys[i].core.String(),
		}
	}, func(ctx context.Context, i int) error {
		return runPoint(ctx, opts, prog, keys[i], &results[i])
	})
	if opts.KeepGoing {
		return results, keepGoingError(ctx, opts, keys, errs)
	}
	return results, sweepError(keys, errs)
}

// runPoint simulates (or fetches) one point of a sweep.
func runPoint(ctx context.Context, opts Options, prog *progressTracker, k runKey, result *system.Results) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg, err := config.ForSystem(k.system, k.core)
	if err != nil {
		return err
	}
	cfg.Sanitize = opts.Sanitize
	cfg.Sample = opts.Sample
	cfg.Workers = opts.workers()
	if k.mutate != nil {
		k.mutate(&cfg)
	}
	var key string
	if opts.Cache != nil || prog != nil || opts.KeepGoing ||
		opts.StallTimeout > 0 || opts.PointTimeout > 0 {
		key = system.CacheKey(cfg, k.bench, opts.scale())
	}
	computed := false
	// The guarded compute closure: panics (simulator bugs, sanitizer
	// violations) become structured PointErrors here, inside the cache
	// boundary, so a result cache can quarantine the deterministic ones and
	// singleflight followers inherit the same typed failure.
	run := func() (system.Results, error) {
		computed = true
		var res system.Results
		err := fault.Guard(ctx, key, opts.StallTimeout, opts.PointTimeout, func(ctx context.Context) error {
			if hook := testFaultHook; hook != nil {
				hook(k.bench, k.system, k.core)
			}
			if cfg.Sample.Enabled() {
				est, err := sample.RunEstimate(ctx, cfg, k.bench, opts.scale())
				if err != nil {
					return err
				}
				opts.estimates.record(k, newPointEstimate(k, est))
				res = est.Results
				return nil
			}
			var rerr error
			res, rerr = system.RunBenchmark(ctx, cfg, k.bench, opts.scale())
			return rerr
		})
		if err != nil {
			return system.Results{}, err
		}
		return res, nil
	}
	prog.start(key)
	begin := time.Now()
	var perr error
	switch cache := opts.Cache.(type) {
	case nil:
		*result, perr = run()
	case PointCache:
		*result, perr = cache.DoPoint(ctx, key, cfg, k.bench, opts.scale(), run)
	default:
		*result, perr = cache.Do(ctx, key, run)
	}
	prog.finish(key, perr, perr == nil && !computed, time.Since(begin))
	return perr
}

// sweepError reduces per-run errors to the one worth reporting: the first
// real failure. Pure cancellation errors (runs killed because another run
// already failed, or because the caller cancelled) only surface when no
// underlying failure exists.
func sweepError(keys []runKey, errs []error) error {
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = fmt.Errorf("%s/%s/%v: %w", keys[i].bench, keys[i].system, keys[i].core, err)
			}
			continue
		}
		return fmt.Errorf("%s/%s/%v: %w", keys[i].bench, keys[i].system, keys[i].core, err)
	}
	return ctxErr
}

// keepGoingError reduces per-run errors for a keep-going sweep: every
// failure is recorded into opts.failures (classified through the fault
// taxonomy) and the sweep still succeeds — failed points simply carry zero
// Results — unless the caller's own context was cancelled or every point
// failed, in which case there is nothing partial worth returning and the
// representative error surfaces as usual.
func keepGoingError(ctx context.Context, opts Options, keys []runKey, errs []error) error {
	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		opts.failures.record(keys[i], newPointFailure(keys[i], err))
	}
	if ctx.Err() != nil || (failed > 0 && failed == len(keys)) {
		return sweepError(keys, errs)
	}
	return nil
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

func pct(x float64) string  { return fmt.Sprintf("%.1f%%", 100*x) }
func rat(x float64) string  { return fmt.Sprintf("%.2fx", x) }
func flt3(x float64) string { return fmt.Sprintf("%.3f", x) }

// --- Fig 2: motivation -----------------------------------------------------

// fig02 reproduces the cache-thrashing motivation: the fraction of L2
// evictions that are clean and never reused (and the stream-covered share),
// and the fraction of NoC traffic attributable to caching unreused data.
func fig02(opts Options) (*Table, error) {
	// The motivation numbers depend on per-core working sets exceeding the
	// private L2, so this figure enforces a minimum dataset scale (use
	// -scale 1 for the calibrated Table IV sizes).
	if opts.Scale < 0.5 {
		opts.Scale = 0.5
	}
	benches := opts.benchmarks()
	keys := make([]runKey, len(benches))
	for i, b := range benches {
		keys[i] = runKey{bench: b, system: "Base", core: config.OOO8}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 2: Overhead of Caching Data without Reuse (Base, OOO8)",
		Header: []string{"benchmark", "evict-clean-noreuse", "of-which-stream", "unreused-traffic", "unreused-ctrl"},
	}
	var fracs, streams, traffic []float64
	for i, r := range res {
		s := r.Stats
		evict := float64(s.L2Evictions)
		if evict == 0 {
			evict = 1
		}
		noReuse := float64(s.L2EvictCleanNoReuse) / evict
		streamShare := float64(s.L2EvictCleanNoReuseStream) / evict
		total := float64(s.TotalFlitHops())
		if total == 0 {
			total = 1
		}
		un := float64(s.UnreusedDataFlitHops+s.UnreusedCtrlFlitHops) / total
		unCtrl := float64(s.UnreusedCtrlFlitHops) / total
		fracs = append(fracs, noReuse)
		streams = append(streams, streamShare)
		traffic = append(traffic, un)
		t.Rows = append(t.Rows, []string{benches[i], pct(noReuse), pct(streamShare), pct(un), pct(unCtrl)})
	}
	t.Rows = append(t.Rows, []string{"mean", pct(mean(fracs)), pct(mean(streams)), pct(mean(traffic)), ""})
	t.metric("evict-clean-noreuse", mean(fracs))
	t.metric("stream-covered", mean(streams))
	t.metric("unreused-traffic", mean(traffic))
	t.Notes = append(t.Notes,
		"paper: 72% of L2 evictions are clean+unreused, 63% stream-covered; unreused data causes 50% of traffic (20% control)")
	return t, nil
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// --- Fig 13: overall speedup and energy efficiency --------------------------

// fig13 reproduces the headline comparison: speedup and energy efficiency
// of Stride/Bingo/SS/SF over Base, for IO4, OOO4 and OOO8 cores.
func fig13(opts Options) (*Table, error) {
	systems := []string{"Base", "Stride", "Bingo", "SS", "SF"}
	cores := []config.CoreKind{config.IO4, config.OOO4, config.OOO8}
	benches := opts.benchmarks()

	var keys []runKey
	for _, core := range cores {
		for _, sys := range systems {
			for _, b := range benches {
				keys = append(keys, runKey{bench: b, system: sys, core: core})
			}
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	at := func(ci, si, bi int) system.Results {
		return res[(ci*len(systems)+si)*len(benches)+bi]
	}
	t := &Table{
		Title:  "Fig 13: Overall Speedup and Energy Efficiency over Base",
		Header: []string{"core", "system", "speedup(gm)", "energy-eff(gm)", "per-benchmark speedups"},
	}
	for ci, core := range cores {
		for si, sys := range systems {
			if sys == "Base" {
				continue
			}
			var sp, ee []float64
			var per []string
			for bi, b := range benches {
				base := at(ci, 0, bi).Stats
				cur := at(ci, si, bi).Stats
				s := float64(base.Cycles) / float64(cur.Cycles)
				e := base.EnergyJ / cur.EnergyJ
				sp = append(sp, s)
				ee = append(ee, e)
				per = append(per, fmt.Sprintf("%s=%.2f", b, s))
			}
			t.Rows = append(t.Rows, []string{
				core.String(), sys, rat(geomean(sp)), rat(geomean(ee)), strings.Join(per, " "),
			})
			t.metric(sys+"-"+core.String()+"-speedup", geomean(sp))
			t.metric(sys+"-"+core.String()+"-energy-eff", geomean(ee))
		}
	}
	t.Notes = append(t.Notes,
		"paper: SF speedup 3.20x (IO4) / 1.41x-rel (OOO4) / 1.39x (OOO8) incl. prefetcher baselines; SS-IO4 1.95x, BG-IO4 2.10x",
		"paper: SF beats SS by 64% (IO4), 37% (OOO4), 31% (OOO8)")
	return t, nil
}

// --- Fig 14: floating requests ----------------------------------------------

// fig14 breaks L3 requests down by origin for SF on OOO8.
func fig14(opts Options) (*Table, error) {
	benches := opts.benchmarks()
	keys := make([]runKey, len(benches))
	for i, b := range benches {
		keys[i] = runKey{bench: b, system: "SF", core: config.OOO8}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 14: Requests to L3 of SF-OOO8, by origin",
		Header: []string{"benchmark", "core-normal", "core-stream", "float-affine", "float-indirect", "float-confluence", "floated-total"},
	}
	var floatedShare []float64
	for i, r := range res {
		s := r.Stats
		tot := float64(s.TotalL3Requests())
		if tot == 0 {
			tot = 1
		}
		f := func(k stats.L3ReqKind) float64 { return float64(s.L3Requests[k]) / tot }
		floated := f(stats.L3FloatAffine) + f(stats.L3FloatIndirect) + f(stats.L3FloatConfluence)
		floatedShare = append(floatedShare, floated)
		t.Rows = append(t.Rows, []string{
			benches[i],
			pct(f(stats.L3CoreNormal)), pct(f(stats.L3CoreStream)),
			pct(f(stats.L3FloatAffine)), pct(f(stats.L3FloatIndirect)),
			pct(f(stats.L3FloatConfluence)), pct(floated),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", "", "", "", "", "", pct(mean(floatedShare))})
	t.metric("floated-share", mean(floatedShare))
	t.Notes = append(t.Notes, "paper: 68% of L3 requests are SE_L3-generated; 50% affine, 5% indirect; conv3d confluence ~51%")
	return t, nil
}

// --- Fig 15: NoC traffic ----------------------------------------------------

// fig15 reports NoC flit-hops by message class, normalized to Base, plus
// average network utilization, across the prefetchers (with and without
// bulk), SS, and the SF ablations.
func fig15(opts Options) (*Table, error) {
	type variant struct {
		label  string
		system string
		mutate func(*config.Config)
	}
	variants := []variant{
		{"Base", "Base", nil},
		{"Stride", "Stride", nil},
		{"Stride+bulk", "Stride", func(c *config.Config) { c.BulkPrefetch = true; c.L3InterleaveBytes = 1024 }},
		{"Bingo", "Bingo", nil},
		{"Bingo+bulk", "Bingo", func(c *config.Config) { c.BulkPrefetch = true; c.L3InterleaveBytes = 1024 }},
		{"SS", "SS", nil},
		{"SF-Aff", "SF-Aff", nil},
		{"SF-Ind", "SF-Ind", nil},
		{"SF", "SF", nil},
	}
	benches := opts.benchmarks()
	var keys []runKey
	for _, v := range variants {
		for _, b := range benches {
			keys = append(keys, runKey{bench: b, system: v.system, core: config.OOO8, mutate: v.mutate})
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 15: OOO8 NoC traffic (flit-hops normalized to Base) and utilization",
		Header: []string{"variant", "total", "ctrl-req+coh", "data", "stream-mgmt", "utilization"},
	}
	for vi, v := range variants {
		var tot, ctrl, data, mgmt, util []float64
		for bi := range benches {
			base := res[bi].Stats
			cur := res[vi*len(benches)+bi].Stats
			bTot := float64(base.TotalFlitHops())
			if bTot == 0 {
				bTot = 1
			}
			tot = append(tot, float64(cur.TotalFlitHops())/bTot)
			ctrl = append(ctrl, float64(cur.FlitHops[stats.ClassCtrlReq]+cur.FlitHops[stats.ClassCtrlCoh])/bTot)
			data = append(data, float64(cur.FlitHops[stats.ClassData])/bTot)
			mgmt = append(mgmt, float64(cur.FlitHops[stats.ClassStream])/bTot)
			util = append(util, cur.NoCUtilization(res[vi*len(benches)+bi].NumLinks))
		}
		t.Rows = append(t.Rows, []string{
			v.label, flt3(mean(tot)), flt3(mean(ctrl)), flt3(mean(data)), flt3(mean(mgmt)), pct(mean(util)),
		})
		t.metric(v.label+"-traffic", mean(tot))
		t.metric(v.label+"-utilization", mean(util))
	}
	t.Notes = append(t.Notes,
		"paper: Bingo +34% traffic, bulk -6%, SF-Aff -30%, SF -36%; stream mgmt overhead ~2%; utilization 35% (Bingo) -> 25% (SF)")
	return t, nil
}

// --- Fig 16: link-width sensitivity ------------------------------------------

// fig16 compares SF and Bingo at 128/256/512-bit links, normalized to
// Bingo with 128-bit links.
func fig16(opts Options) (*Table, error) {
	widths := []int{128, 256, 512}
	systems := []string{"Bingo", "SF"}
	benches := opts.benchmarks()
	var keys []runKey
	for _, w := range widths {
		for _, sys := range systems {
			for _, b := range benches {
				w := w
				keys = append(keys, runKey{bench: b, system: sys, core: config.OOO8,
					mutate: func(c *config.Config) { c.LinkBits = w }})
			}
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	at := func(wi, si, bi int) system.Results {
		return res[(wi*len(systems)+si)*len(benches)+bi]
	}
	t := &Table{
		Title:  "Fig 16: SF vs Bingo with 128/256/512-bit links (normalized to Bingo-128)",
		Header: []string{"link", "Bingo", "SF", "SF/Bingo"},
	}
	for wi, w := range widths {
		var bg, sf []float64
		for bi := range benches {
			ref := float64(at(0, 0, bi).Stats.Cycles)
			bg = append(bg, ref/float64(at(wi, 0, bi).Stats.Cycles))
			sf = append(sf, ref/float64(at(wi, 1, bi).Stats.Cycles))
		}
		gBg, gSf := geomean(bg), geomean(sf)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d-bit", w), rat(gBg), rat(gSf), rat(gSf / gBg)})
		t.metric(fmt.Sprintf("SF-over-Bingo-%dbit", w), gSf/gBg)
	}
	t.Notes = append(t.Notes, "paper: SF/Bingo grows from 1.34x at 128-bit to 1.43x at 512-bit")
	return t, nil
}

// --- Fig 17: NUCA interleaving ------------------------------------------------

// fig17 sweeps the static-NUCA interleaving granularity for Bingo and SF,
// normalized to Bingo-64B.
func fig17(opts Options) (*Table, error) {
	grains := []int{64, 256, 1024, 4096}
	systems := []string{"Bingo", "SF"}
	benches := opts.benchmarks()
	var keys []runKey
	for _, g := range grains {
		for _, sys := range systems {
			for _, b := range benches {
				g := g
				keys = append(keys, runKey{bench: b, system: sys, core: config.OOO8,
					mutate: func(c *config.Config) { c.L3InterleaveBytes = g }})
			}
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	at := func(gi, si, bi int) system.Results {
		return res[(gi*len(systems)+si)*len(benches)+bi]
	}
	t := &Table{
		Title:  "Fig 17: NUCA interleaving granularity (normalized to Bingo-64B)",
		Header: []string{"interleave", "Bingo", "SF", "SF stream-ctrl traffic"},
	}
	for gi, g := range grains {
		var bg, sf, mgmt []float64
		for bi := range benches {
			ref := float64(at(0, 0, bi).Stats.Cycles)
			bg = append(bg, ref/float64(at(gi, 0, bi).Stats.Cycles))
			sfr := at(gi, 1, bi)
			sf = append(sf, ref/float64(sfr.Stats.Cycles))
			tot := float64(sfr.Stats.TotalFlitHops())
			if tot == 0 {
				tot = 1
			}
			mgmt = append(mgmt, float64(sfr.Stats.FlitHops[stats.ClassStream])/tot)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dB", g), rat(geomean(bg)), rat(geomean(sf)), pct(mean(mgmt)),
		})
		t.metric(fmt.Sprintf("SF-%dB", g), geomean(sf))
		t.metric(fmt.Sprintf("Bingo-%dB", g), geomean(bg))
	}
	t.Notes = append(t.Notes,
		"paper: SF best at 1kB; Bingo-4kB 0.93x of Bingo-64B (hotspots); SF-64B pays 12% stream-control traffic yet still cuts total by 22%")
	return t, nil
}

// --- Fig 18: core scaling -----------------------------------------------------

// fig18 scales the mesh (4x4, 4x8, 8x8) and reports SF's speedup over SS
// plus SS's private/shared hit rates.
func fig18(opts Options) (*Table, error) {
	meshes := []struct{ w, h int }{{4, 4}, {4, 8}, {8, 8}}
	systems := []string{"SS", "SF"}
	benches := opts.benchmarks()
	var keys []runKey
	for _, m := range meshes {
		for _, sys := range systems {
			for _, b := range benches {
				m := m
				keys = append(keys, runKey{bench: b, system: sys, core: config.OOO8,
					mutate: func(c *config.Config) { c.MeshWidth, c.MeshHeight = m.w, m.h }})
			}
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	at := func(mi, si, bi int) system.Results {
		return res[(mi*len(systems)+si)*len(benches)+bi]
	}
	t := &Table{
		Title:  "Fig 18: Core scaling - SF speedup over SS",
		Header: []string{"mesh", "SF/SS (gm)", "SS L2 hit", "SS L3 hit"},
	}
	for mi, m := range meshes {
		var sp, l2hit, l3hit []float64
		for bi := range benches {
			ss := at(mi, 0, bi).Stats
			sf := at(mi, 1, bi).Stats
			sp = append(sp, float64(ss.Cycles)/float64(sf.Cycles))
			if acc := ss.L2Hits + ss.L2Misses; acc > 0 {
				l2hit = append(l2hit, float64(ss.L2Hits)/float64(acc))
			}
			if acc := ss.L3Hits + ss.L3Misses; acc > 0 {
				l3hit = append(l3hit, float64(ss.L3Hits)/float64(acc))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", m.w, m.h), rat(geomean(sp)), pct(mean(l2hit)), pct(mean(l3hit)),
		})
		t.metric(fmt.Sprintf("SF-over-SS-%dx%d", m.w, m.h), geomean(sp))
	}
	t.Notes = append(t.Notes, "paper: SF/SS 1.30x at 4x4 rising slightly to 1.32x at 8x8")
	return t, nil
}

// --- Fig 19: energy vs speedup -------------------------------------------------

// fig19 produces the energy-vs-speedup scatter: one point per (core,
// system), both axes normalized to Base-IO4.
func fig19(opts Options) (*Table, error) {
	systems := []string{"Base", "Stride", "Bingo", "SS", "SF"}
	cores := []config.CoreKind{config.IO4, config.OOO4, config.OOO8}
	benches := opts.benchmarks()
	var keys []runKey
	for _, core := range cores {
		for _, sys := range systems {
			for _, b := range benches {
				keys = append(keys, runKey{bench: b, system: sys, core: core})
			}
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	at := func(ci, si, bi int) system.Results {
		return res[(ci*len(systems)+si)*len(benches)+bi]
	}
	t := &Table{
		Title:  "Fig 19: Energy vs Speedup (normalized to Base-IO4)",
		Header: []string{"point", "speedup(gm)", "energy(gm)"},
	}
	type pt struct {
		label  string
		sp, en float64
	}
	var pts []pt
	for ci, core := range cores {
		for si, sys := range systems {
			var sp, en []float64
			for bi := range benches {
				ref := at(0, 0, bi).Stats
				cur := at(ci, si, bi).Stats
				sp = append(sp, float64(ref.Cycles)/float64(cur.Cycles))
				en = append(en, cur.EnergyJ/ref.EnergyJ)
			}
			pts = append(pts, pt{fmt.Sprintf("%s-%s", sys, core), geomean(sp), geomean(en)})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].sp < pts[j].sp })
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.label, rat(p.sp), flt3(p.en)})
		t.metric(p.label+"-speedup", p.sp)
		t.metric(p.label+"-energy", p.en)
	}
	t.Notes = append(t.Notes, "paper: SF-IO4 outperforms SS-OOO8 at much lower energy")
	return t, nil
}

// --- Area table ------------------------------------------------------------------

// areaTable reproduces the §VII-A area-overhead numbers. It simulates
// nothing, so it ignores its options.
func areaTable(Options) (*Table, error) {
	t := &Table{
		Title:  "Area overheads (22nm, per tile) - section VII-A",
		Header: []string{"core", "SE_L3 cfg", "SE_L3 TLB", "L3 ovh", "SE_L2 buf", "L2 ovh", "chip ovh"},
	}
	for _, core := range []config.CoreKind{config.IO4, config.OOO8} {
		cfg := config.Default()
		cfg.Core = core
		a := energy.Area(cfg)
		t.Rows = append(t.Rows, []string{
			core.String(),
			fmt.Sprintf("%.2fmm2", a.SEL3ConfigMM2),
			fmt.Sprintf("%.2fmm2", a.SEL3TLBMM2),
			pct(a.L3OverheadPct / 100),
			fmt.Sprintf("%.2fmm2", a.SEL2BufferMM2),
			pct(a.L2OverheadPct / 100),
			pct(a.ChipOverheadPct / 100),
		})
	}
	t.Notes = append(t.Notes, "paper: SE_L3 48kB=0.11mm2 + 1k TLB=0.04mm2 (4.5% of L3); 9% of L2; chip 1.6% (IO4) / 1.4% (OOO8)")
	return t, nil
}

// All runs every experiment in paper order (plus the trace-derived latency
// attribution appendix), writing rendered tables to w.
func All(opts Options, w io.Writer) error {
	for _, r := range figureRunners() {
		t, err := runFigure(r.name, r.fn, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		t.Fprint(w)
	}
	return nil
}

// ByName returns the runner for a figure id ("2", "13", ... "19", "area",
// "ablations", or "latency"). The returned runner folds sampled-sweep
// summaries into its table like All does.
func ByName(id string) (func(Options) (*Table, error), bool) {
	fn, ok := rawByName(id)
	if !ok {
		return nil, false
	}
	return func(opts Options) (*Table, error) { return runFigure(id, fn, opts) }, true
}

func rawByName(id string) (func(Options) (*Table, error), bool) {
	switch id {
	case "2", "fig2":
		return fig02, true
	case "13", "fig13":
		return fig13, true
	case "14", "fig14":
		return fig14, true
	case "15", "fig15":
		return fig15, true
	case "16", "fig16":
		return fig16, true
	case "17", "fig17":
		return fig17, true
	case "18", "fig18":
		return fig18, true
	case "19", "fig19":
		return fig19, true
	case "area":
		return areaTable, true
	case "ablations":
		return ablations, true
	case "latency":
		return latencyBreakdown, true
	}
	return nil, false
}
