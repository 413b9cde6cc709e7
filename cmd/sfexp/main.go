// Command sfexp regenerates the paper's tables and figures.
//
// Usage:
//
//	sfexp -fig 13 -scale 0.5                       # one figure
//	sfexp -fig all -out results.txt                # the whole evaluation
//	sfexp -fig 15 -bench mv,conv3d                 # restricted benchmark set
//	sfexp -fig all -csv -out results/              # one CSV per figure
//	sfexp -fig 13 -bench pathfinder -trace out.json # plus a Chrome-trace export
//	sfexp -fig all -cache ~/.cache/sf              # memoize runs on disk; this is also the
//	                                               # crash-safe sweep: re-run the same command
//	                                               # after an interruption and its completed
//	                                               # and quarantined points replay from the cache
//	sfexp -fig 13 -backends host1:8080,host2:8080  # shard the sweep over sfserve backends
//	sfexp -fig 13 -sample                          # sampled simulation (~3x less work, ±CI)
//	sfexp -fig all -json -out results.json         # machine-readable report
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"streamfloat"
	"streamfloat/internal/cluster"
	"streamfloat/internal/experiments"
	"streamfloat/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sfexp: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run carries the whole program so that every exit path unwinds the deferred
// finalizers: the CPU profile is stopped, the heap profile written, and the
// -out file closed even when a sweep or export fails (log.Fatal in main
// would skip all three).
func run() (err error) {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 2, 13-19, area, ablations, latency, or all")
		scale     = flag.Float64("scale", 0.25, "dataset scale (1.0 = calibrated full size)")
		benches   = flag.String("bench", "", "comma-separated benchmark subset (default: all 12)")
		outPath   = flag.String("out", "", "write results to a file instead of stdout (with -fig all -csv: a directory)")
		par       = flag.Int("par", 0, "parallel simulations (0 or negative = GOMAXPROCS)")
		workers   = flag.Int("workers", 0, "parallel shard workers per simulation (results are bit-identical for every value; -par is derated so par x workers fits GOMAXPROCS)")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of an aligned table (with -fig all: one CSV per figure into -out)")
		asJSON    = flag.Bool("json", false, "emit one machine-readable JSON report instead of aligned tables")
		doSample  = flag.Bool("sample", false, "sampled simulation: estimate each point from a measured interval block (reported with 95% CIs)")
		sampleK   = flag.Int("sample-intervals", 16, "with -sample: intervals each kernel phase is partitioned into (K)")
		sampleM   = flag.Int("sample-measure", 0, "with -sample: intervals measured in detail (0 = min(3, K))")
		sampleSd  = flag.Int64("sample-seed", 0, "with -sample: deterministic measured-block placement (0 centers the block)")
		chart     = flag.String("chart", "", "also render an ASCII bar chart of metrics with this suffix (e.g. speedup) under each aligned table (not with -csv or -json)")
		san       = flag.String("sanitize", "auto", "runtime invariant probes: on, off, or auto (on inside go test, off here)")
		cacheDir  = flag.String("cache", "", "keep the result cache in this directory (shared with sfserve) instead of memory only; re-running an interrupted sweep over the same directory replays its completed and quarantined points")
		backends  = flag.String("backends", "", "comma-separated sfserve backends to shard the sweep over (host:port,...); the result cache computes the points they cannot serve")
		tracePath = flag.String("trace", "", "also run one traced simulation and write Chrome-trace JSON here (inspect with sftrace or ui.perfetto.dev)")
		traceSys  = flag.String("tracesys", "SF", "system for the -trace run (Base, Stride, Bingo, SS, SF, ...)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		keepGoing = flag.Bool("keep-going", false, "partial-results mode: a point that panics, trips a sanitizer violation, or times out is marked FAILED in the output instead of aborting the sweep")
		pointTO   = flag.Duration("point-timeout", 0, "per-point wall-clock deadline; an overrunning simulation is cancelled and reported as a timeout (0 = none)")
		stallTO   = flag.Duration("stall-timeout", 0, "per-point watchdog: a simulation whose event loop stops advancing for this long is killed as stuck (0 = off)")
	)
	flag.Parse()

	// Sweep-shaping flags are range-checked before any simulation starts, so
	// a bad value is a usage error now, not a surprise minutes into a sweep.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateSweepFlags(sweepFlags{
		explicit: explicit, scale: *scale, workers: *workers, k: *sampleK, m: *sampleM,
		chart: *chart, asCSV: *asCSV, asJSON: *asJSON,
	}); err != nil {
		return err
	}
	// Figure ids resolve up front too: a typo is reported before any
	// simulation runs.
	ids := experiments.Names()
	if *fig != "all" {
		if _, ok := experiments.ByName(*fig); !ok {
			return fmt.Errorf("unknown figure %q (want 2, 13-19, area, ablations, latency, or all)", *fig)
		}
		ids = []string{*fig}
	}

	if *cpuProf != "" {
		f, ferr := os.Create(*cpuProf)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			if perr := writeHeapProfile(*memProf); err == nil {
				err = perr
			}
		}()
	}

	sanMode, err := streamfloat.ParseSanitizeMode(*san)
	if err != nil {
		return err
	}
	opts := streamfloat.ExperimentOptions{
		Scale: *scale, Parallelism: *par, Workers: *workers, Sanitize: sanMode,
		KeepGoing: *keepGoing, PointTimeout: *pointTO, StallTimeout: *stallTO,
	}
	if *doSample {
		opts.Sample = streamfloat.SampleParams{Intervals: *sampleK, Measure: *sampleM, Seed: *sampleSd}
		if err := opts.Sample.Validate(); err != nil {
			return err
		}
		if !opts.Sample.Enabled() {
			return fmt.Errorf("-sample needs -sample-intervals > 1 (got %d)", *sampleK)
		}
	}

	// Benchmark names are trimmed and validated up front: `-bench "mv, nn"`
	// either runs mv and nn or reports the typo immediately, never minutes
	// into a sweep.
	opts.Benchmarks, err = streamfloat.ParseBenchmarks(*benches)
	if err != nil {
		return err
	}

	// Every point goes through one Store, so a point two figures share is
	// simulated once. -cache makes it durable: <key>.json per result,
	// <key>.poison.json per deterministic failure. That makes the sweep
	// crash-safe: re-running the same command after a crash or ^C replays
	// both kinds and simulates only the points that never finished.
	store, err := serve.NewStore(0, *cacheDir)
	if err != nil {
		return err
	}
	opts.Cache = store
	defer func() {
		st := store.Stats()
		where := "memory only"
		if *cacheDir != "" {
			where = "dir " + *cacheDir
		}
		if status, err := os.ReadFile("/proc/self/status"); err == nil {
			if kb, ok := vmHWM(status); ok {
				where += fmt.Sprintf("; peak RSS %.1f MiB", float64(kb)/1024)
			}
		}
		log.Printf("cache: %d mem hits, %d disk hits, %d misses, %d dedups, %d panics contained, %d stall kills (%s)",
			st.Hits, st.DiskHits, st.Misses, st.Dedups, st.Panics, st.WatchdogKills, where)
	}()

	// -backends shards the sweep across sfserve processes by consistent-
	// hashing each point's cache key; the Store computes the points the
	// cluster cannot serve.
	if *backends != "" {
		cc := cluster.Config{Origin: "sfexp", Local: store}
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				cc.Backends = append(cc.Backends, b)
			}
		}
		client, cerr := cluster.New(cc)
		if cerr != nil {
			return cerr
		}
		opts.Cache = client
		defer func() {
			client.Close()
			st := client.Stats()
			log.Printf("cluster: %d remote, %d retries, %d local fallbacks, %d poisoned, %d ejections (%d backends)",
				st.Remote, st.Retries, st.Fallbacks, st.Poisoned, st.Ejections, len(cc.Backends))
		}()
	}

	var w io.Writer = os.Stdout
	out := output{json: *asJSON, csv: *asCSV, chart: *chart}
	if *fig == "all" && *asCSV {
		// -fig all -csv writes one CSV per figure; -out names the directory.
		out.csvDir = *outPath
		if out.csvDir == "" {
			out.csvDir = "."
		}
	} else if *outPath != "" {
		f, ferr := os.Create(*outPath)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	run := func(id string) (*experiments.Table, error) {
		fn, _ := experiments.ByName(id)
		return fn(opts)
	}
	if err := emit(w, ids, run, out); err != nil {
		return err
	}
	return runTrace(opts, *tracePath, *traceSys)
}

// output selects how emit writes the figures: an aligned table (with a chart
// of the metrics ending in chart under it, when chart is set), CSV to the
// writer, one CSV file per figure into csvDir, or one JSON report.
type output struct {
	json, csv bool
	csvDir    string
	chart     string
}

// emit regenerates the figures ids names, in order, through run, and writes
// each one as it finishes; JSON collects the tables and writes them once at
// the end. Every sfexp output format goes through this loop.
func emit(w io.Writer, ids []string, run func(id string) (*experiments.Table, error), out output) error {
	if out.csvDir != "" {
		if err := os.MkdirAll(out.csvDir, 0o755); err != nil {
			return err
		}
	}
	var tables []experiments.NamedTable
	for _, id := range ids {
		t, err := run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		switch {
		case out.json:
			tables = append(tables, experiments.NamedTable{Name: id, Table: t})
		case out.csvDir != "":
			err = writeCSVFile(filepath.Join(out.csvDir, id+".csv"), t)
		case out.csv:
			err = t.WriteCSV(w)
		default:
			t.Fprint(w)
			drew := out.chart != "" && t.Chart(w, out.chart, 48)
			// A chart, and a lone figure, close with a blank line.
			if drew || len(ids) == 1 {
				fmt.Fprintln(w)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	if out.json {
		return experiments.WriteJSON(w, tables)
	}
	return nil
}

// writeCSVFile writes t as CSV into a new file at path.
func writeCSVFile(path string, t *experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepFlags holds the flag values validateSweepFlags checks; explicit marks
// the flags the user actually passed.
type sweepFlags struct {
	explicit      map[string]bool
	scale         float64
	workers, k, m int
	chart         string
	asCSV, asJSON bool
}

// validateSweepFlags range-checks the sweep-shaping flags and rejects output
// flags that cannot combine. -workers and -sample-measure default to 0
// meaning "auto-pick", so only explicit values are rejected for being
// non-positive, while -scale and -sample-intervals must always be positive
// and the measured block can never exceed the partition it samples from. A
// chart is drawn only under aligned tables, so -chart with -csv or -json is
// an error rather than a stray bar chart in machine-readable output.
func validateSweepFlags(f sweepFlags) error {
	if f.scale <= 0 {
		return fmt.Errorf("-scale must be positive (got %v)", f.scale)
	}
	if f.explicit["workers"] && f.workers <= 0 {
		return fmt.Errorf("-workers must be positive (got %d); omit it to derive from GOMAXPROCS", f.workers)
	}
	if f.k <= 0 {
		return fmt.Errorf("-sample-intervals must be positive (got %d)", f.k)
	}
	if f.explicit["sample-measure"] && f.m <= 0 {
		return fmt.Errorf("-sample-measure must be positive (got %d); omit it for the min(3, K) default", f.m)
	}
	if f.m > f.k {
		return fmt.Errorf("-sample-measure (%d) cannot exceed -sample-intervals (%d)", f.m, f.k)
	}
	if f.asJSON && f.asCSV {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	if f.chart != "" && (f.asCSV || f.asJSON) {
		return fmt.Errorf("-chart draws under aligned tables; it cannot combine with -csv or -json")
	}
	return nil
}

// writeHeapProfile snapshots the live heap into path.
func writeHeapProfile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	runtime.GC() // settle live-heap numbers before the snapshot
	return pprof.WriteHeapProfile(f)
}

// runTrace handles -trace: one traced OOO8 simulation of the first selected
// benchmark, exported as Perfetto-loadable Chrome-trace JSON.
func runTrace(opts streamfloat.ExperimentOptions, path, systemName string) error {
	if path == "" {
		return nil
	}
	bench := "nn"
	if len(opts.Benchmarks) > 0 {
		bench = opts.Benchmarks[0]
	}
	res, tr, err := experiments.TracedRun(context.Background(), opts, systemName, streamfloat.OOO8, bench)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeFile(path); err != nil {
		return err
	}
	a := tr.Attribution()
	log.Printf("trace: %s/%s on %s: %d cycles, %d loads, %d spans -> %s (sftrace summarize %s)",
		systemName, "OOO8", bench, res.Stats.Cycles, a.Loads, len(tr.Spans()), path, path)
	return nil
}

// vmHWM returns the resident-set high-water mark, in kB, from the contents
// of a Linux /proc/<pid>/status file; ok is false if it has no VmHWM line.
func vmHWM(status []byte) (kb int64, ok bool) {
	for _, line := range strings.Split(string(status), "\n") {
		if v, found := strings.CutPrefix(line, "VmHWM:"); found {
			f := strings.Fields(v) // "75940 kB"
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}
