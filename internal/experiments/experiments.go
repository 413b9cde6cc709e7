// Package experiments regenerates every table and figure of the paper's
// motivation and evaluation sections. Each figure is declared once, as data,
// in the ordered figures registry: its point grid (systems × cores ×
// benchmarks, sometimes with one swept knob) and a rows function that
// reports the same rows/series the paper presents (normalized the same way).
// Points run in parallel across OS threads; each individual simulation is
// deterministic.
//
// ByName and Names are the registry's only entry points: ByName hands out a
// figure's figure.run, which folds the sampled-sweep confidence intervals,
// keep-going failures and the sweep-parallelism derate note into every
// table, and Names lists the ids in paper order. Rendering is the caller's:
// Table prints itself as text, CSV or a chart, and WriteJSON writes a
// report.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
	"streamfloat/internal/trace"
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
	// sweep's goroutines. Set by figure.run.
	figure string
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
// configuration from a hash. When opts.Cache implements it, runPoint calls
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
	// and at least one point carries a sampled estimate.
	Sampling *SamplingSummary `json:"sampling,omitempty"`
	// Failures lists the points that failed under a keep-going sweep
	// (Options.KeepGoing); those points contributed zero Results to the
	// table's derived metrics and are called out in Notes.
	Failures []PointFailure `json:"failures,omitempty"`
}

// metric records a derived metric. A keep-going sweep's failed point has
// zero Results, which can make a ratio non-finite (a speedup over zero
// cycles); JSON cannot carry that, so it is recorded as 0, the value
// geomean gives a series it cannot average.
func (t *Table) metric(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
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
	// variant is the label of the axis entry that mutated the point (Fig15's
	// prefetcher variants, Fig16's link widths, ...), which tells it apart
	// from points sharing bench/system/core in per-point records; "" for
	// unmutated points.
	variant string
	// traced runs the point under the tracer (the latency figure).
	traced bool
}

// testFaultHook, when non-nil, runs at the top of every computed point's
// guarded simulation closure. Tests use it to inject deterministic faults
// (panics, hangs) into chosen points without touching the simulator; it is
// never set outside _test.go files.
var testFaultHook func(bench, system string, core config.CoreKind)

// sweep runs one point per key in parallel and returns their cells in key
// order. Each point runs with bounded concurrency, pprof goroutine labels
// (inherited by everything it spawns, including the parallel kernel's shard
// workers) and panic containment: a panic escaping a point is recovered into a
// structured *fault.PointError instead of killing the process. By default the
// sweep is fail-fast: the first failure (or a cancel of ctx) cancels every
// other point — queued ones never start, and in-flight ones abort at their
// next event-loop cancellation check — so a failing sweep returns promptly
// instead of burning the rest of the fan-out to completion. Under
// opts.KeepGoing the fan-out instead runs to completion with each failure
// left in its cell (see keepGoingError).
func sweep(ctx context.Context, opts Options, keys []runKey) ([]cell, error) {
	par := opts.parallelism()
	out := make([]cell, len(keys))
	prog := newProgressTracker(opts.Progress, len(keys), par)
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			labels := pprof.Labels("figure", opts.figure, "benchmark", k.bench, "config", k.system+"/"+k.core.String())
			pprof.Do(fanCtx, labels, func(ctx context.Context) {
				out[i].err = fault.Capture("", func() error { return runPoint(ctx, opts, prog, k, &out[i]) })
			})
			if out[i].err != nil && !opts.KeepGoing {
				cancel()
			}
		}()
	}
	wg.Wait()
	if opts.KeepGoing {
		return out, keepGoingError(ctx, keys, out)
	}
	return out, sweepError(keys, out)
}

// cell is one point's outcome: its Results (zero when it failed, with the
// sampled estimate in Results.Sampled however the point was served), its
// error and, for a traced point, the tracer's per-load latency attribution.
type cell struct {
	system.Results
	err  error
	attr trace.TileAttribution
}

// runPoint simulates (or fetches) one point of a sweep. With opts.Cache set,
// an untraced point is served from the result cache by canonical key
// (concurrent identical points share one simulation). A traced point runs in
// full detail under the tracer and bypasses the cache, which holds Results
// only.
func runPoint(ctx context.Context, opts Options, prog *progressTracker, k runKey, out *cell) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg, err := config.ForSystem(k.system, k.core)
	if err != nil {
		return err
	}
	cfg.Sanitize = opts.Sanitize
	if !k.traced { // a traced point runs TracedRun's configuration
		cfg.Sample = opts.Sample
		cfg.Workers = opts.workers()
	}
	if k.mutate != nil {
		k.mutate(&cfg)
	}
	var key string
	if opts.Cache != nil || prog != nil || opts.KeepGoing ||
		opts.StallTimeout > 0 || opts.PointTimeout > 0 {
		key = system.CacheKey(cfg, k.bench, opts.scale())
	}
	computed := false
	var attr trace.TileAttribution
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
			if k.traced {
				r, tr, err := system.RunBenchmarkTraced(ctx, cfg, k.bench, k.system+"/"+k.core.String(), opts.scale())
				if err != nil {
					return err
				}
				res, attr = r, tr.Attribution()
				return nil
			}
			var rerr error
			res, rerr = sample.Run(ctx, cfg, k.bench, opts.scale())
			return rerr
		})
		if err != nil {
			return system.Results{}, err // a killed point's goroutine may still own res and attr
		}
		return res, nil
	}
	prog.start(key)
	begin := time.Now()
	cache := opts.Cache
	if k.traced {
		cache = nil
	}
	var perr error
	switch cache := cache.(type) {
	case nil:
		out.Results, perr = run()
	case PointCache:
		out.Results, perr = cache.DoPoint(ctx, key, cfg, k.bench, opts.scale(), run)
	default:
		out.Results, perr = cache.Do(ctx, key, run)
	}
	if perr == nil {
		out.attr = attr
	}
	prog.finish(key, perr, perr == nil && !computed, time.Since(begin))
	return perr
}

// TracedRun executes one simulation with the structured tracer attached and
// returns the results together with the finished tracer; ctx cancels it
// mid-flight. It backs sfexp -trace; the latency figure's traced points run
// the same configuration through runPoint.
func TracedRun(ctx context.Context, opts Options, systemName string, core config.CoreKind, bench string) (system.Results, *trace.Tracer, error) {
	cfg, err := config.ForSystem(systemName, core)
	if err != nil {
		return system.Results{}, nil, err
	}
	cfg.Sanitize = opts.Sanitize
	return system.RunBenchmarkTraced(ctx, cfg, bench, systemName+"/"+core.String(), opts.scale())
}

// sweepError reduces per-run errors to the one worth reporting: the first
// real failure. Pure cancellation errors (runs killed because another run
// already failed, or because the caller cancelled) only surface when no
// underlying failure exists.
func sweepError(keys []runKey, cells []cell) error {
	var ctxErr error
	for i, c := range cells {
		err := c.err
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

// keepGoingError reduces per-run errors for a keep-going sweep: the sweep
// succeeds — failed points simply carry zero Results and their error —
// unless the caller's own context was cancelled or every point failed, in
// which case there is nothing partial worth returning and the
// representative error surfaces as usual.
func keepGoingError(ctx context.Context, keys []runKey, cells []cell) error {
	failed := 0
	for _, c := range cells {
		if c.err != nil {
			failed++
		}
	}
	if ctx.Err() != nil || (failed > 0 && failed == len(keys)) {
		return sweepError(keys, cells)
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
