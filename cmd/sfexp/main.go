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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"streamfloat"
	"streamfloat/internal/cluster"
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
		chart     = flag.String("chart", "", "also render an ASCII bar chart of metrics with this suffix (e.g. speedup)")
		san       = flag.String("sanitize", "auto", "runtime invariant probes: on, off, or auto (on inside go test, off here)")
		cacheDir  = flag.String("cache", "", "serve simulations from a result-cache directory (shared with sfserve); re-running an interrupted sweep over the same directory replays its completed and quarantined points")
		backends  = flag.String("backends", "", "comma-separated sfserve backends to shard the sweep over (host:port,...); -cache becomes the local fallback store")
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
	if err := validateSweepFlags(explicit, *workers, *sampleK, *sampleM); err != nil {
		return err
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

	// -cache persists every point under its canonical key: <key>.json per
	// result, <key>.poison.json per deterministic failure. That makes the
	// sweep crash-safe: re-running the same command after a crash or ^C
	// replays both kinds and simulates only the points that never finished.
	var store *serve.Store
	if *cacheDir != "" {
		store, err = serve.NewStore(0, *cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = store
		defer func() {
			st := store.Stats()
			log.Printf("cache: %d mem hits, %d disk hits, %d misses, %d dedups (dir %s)",
				st.Hits, st.DiskHits, st.Misses, st.Dedups, *cacheDir)
		}()
	}

	// -backends shards the sweep across sfserve processes by consistent-
	// hashing each point's cache key; a -cache store, when also given,
	// doubles as the local fallback cache for points the cluster cannot
	// serve.
	if *backends != "" {
		cc := cluster.Config{Origin: "sfexp"}
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				cc.Backends = append(cc.Backends, b)
			}
		}
		if store != nil {
			cc.Local = store
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

	if *asJSON && *asCSV {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}

	// -fig all -csv writes one CSV per figure; -out names the directory.
	if *fig == "all" && *asCSV {
		dir := *outPath
		if dir == "" {
			dir = "."
		}
		if err := streamfloat.WriteExperimentCSVs(opts, dir); err != nil {
			return err
		}
		return runTrace(opts, *tracePath, *traceSys)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
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

	// -json emits one machine-readable report for the whole evaluation or a
	// single figure; sampled sweeps carry their confidence intervals.
	if *asJSON {
		var tables []streamfloat.NamedExperimentTable
		if *fig == "all" {
			tables, err = streamfloat.AllExperimentTables(opts)
		} else {
			var t *streamfloat.ExperimentTable
			t, err = streamfloat.Experiment(*fig, opts)
			tables = []streamfloat.NamedExperimentTable{{Name: *fig, Table: t}}
		}
		if err != nil {
			return err
		}
		if err := streamfloat.WriteExperimentsJSON(w, tables); err != nil {
			return err
		}
		return runTrace(opts, *tracePath, *traceSys)
	}

	if *fig == "all" {
		if err := streamfloat.AllExperiments(opts, w); err != nil {
			return err
		}
		return runTrace(opts, *tracePath, *traceSys)
	}
	t, err := streamfloat.Experiment(*fig, opts)
	if err != nil {
		return err
	}
	if *asCSV {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	} else {
		t.Fprint(w)
	}
	if *chart != "" {
		t.Chart(w, *chart, 48)
	}
	if !*asCSV {
		// Trailing separator for the aligned-table form only: CSV output
		// must stay machine-parseable with no stray blank record.
		fmt.Fprintln(w)
	}
	return runTrace(opts, *tracePath, *traceSys)
}

// validateSweepFlags range-checks the sweep-shaping flags. explicit marks
// flags the user actually passed: -workers and -sample-measure default to 0
// meaning "auto-pick", so only explicit values are rejected for being
// non-positive, while -sample-intervals must always be positive and the
// measured block can never exceed the partition it samples from.
func validateSweepFlags(explicit map[string]bool, workers, sampleK, sampleM int) error {
	if explicit["workers"] && workers <= 0 {
		return fmt.Errorf("-workers must be positive (got %d); omit it to derive from GOMAXPROCS", workers)
	}
	if sampleK <= 0 {
		return fmt.Errorf("-sample-intervals must be positive (got %d)", sampleK)
	}
	if explicit["sample-measure"] && sampleM <= 0 {
		return fmt.Errorf("-sample-measure must be positive (got %d); omit it for the min(3, K) default", sampleM)
	}
	if sampleM > sampleK {
		return fmt.Errorf("-sample-measure (%d) cannot exceed -sample-intervals (%d)", sampleM, sampleK)
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
	res, tr, err := streamfloat.TracedExperimentRun(opts, systemName, streamfloat.OOO8, bench)
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
