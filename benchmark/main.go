// Command benchmark is the one benchmark for the whole streamfloat stack:
// six workloads, named end-to-end metrics, a per-layer ladder and an
// outside-in traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
)

// scratchRoot is where everything the harness writes goes, relative to the
// directory it is started in (run.sh starts it in the checkout's root).
const scratchRoot = ".bench_build"

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs (request order, micro-rung plans); never reaches simulator configuration")
		seconds      = flag.Float64("seconds", 8, "measure for at least this long")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out          = flag.String("out", "", "write the full report here (default "+scratchRoot+"/reports/<workload>.seed<n>.trace<t>.json)")
		traceOut     = flag.String("trace-out", "", "write the Chrome trace of a traced run here (default "+scratchRoot+"/traces/<workload>.json)")
		doLadder     = flag.Bool("ladder", false, "print the per-layer micro-rungs and exit")
		doCompare    = flag.Bool("compare", false, "compare two reports or directories of reports: -compare base new")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare <base report or directory> <new report or directory>")
		}
		os.Exit(compare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	p := loadWidth()
	runtime.GOMAXPROCS(p)
	scratch := filepath.Join(scratchRoot, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	e := env{p: p, seed: *seed, sizes: defaultSizes, scratch: scratch, traced: *trace != 0}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *doLadder {
		rungs, err := ladder(ctx, e, true)
		if err != nil {
			fatal(1, "ladder: %v", err)
		}
		printLadder(os.Stdout, newHostInfo(p, *seed), rungs)
		return
	}

	rc := runConfig{workload: *workloadName, env: e, seconds: *seconds, traceOut: *traceOut}.defaultRepeats()
	if rc.traceOut == "" {
		rc.traceOut = filepath.Join(scratchRoot, "traces", rc.workload+".json")
	}
	run := runUntraced
	if e.traced {
		run = runTraced
	}
	rep, err := run(ctx, rc)
	if err != nil {
		fatal(1, "%s: %v", rc.workload, err)
	}
	if *out == "" {
		*out = filepath.Join(scratchRoot, "reports", fmt.Sprintf("%s.seed%d.trace%d.json", rc.workload, *seed, *trace))
	}
	if err := writeReport(*out, rep); err != nil {
		fatal(1, "%v", err)
	}
	printReport(rep, *out)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the readable metric table to standard error and the
// contract's object as the last line of standard output.
func printReport(rep *report, path string) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	w := os.Stderr
	fmt.Fprintf(w, "%s  seed %d  P %d  GOMAXPROCS %d  workers %d (effective %d)  %s  commit %.12s\n",
		rep.Workload, rep.Host.Seed, rep.Host.P, rep.Host.GOMAXPROCS, rep.Workers, rep.EffectiveWorkers, rep.Host.CPUModel, rep.Host.Commit)
	for _, name := range names {
		m := rep.Metrics[name]
		if m.N > 1 {
			fmt.Fprintf(w, "  %-40s %14.4f %-9s (q1 %.4f, q3 %.4f, n %d)\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if len(rep.SelfTimeMS) > 0 {
		fmt.Fprintln(w, "  self time per traced pass (span minus children):")
		spans := make([]string, 0, len(rep.SelfTimeMS))
		for name := range rep.SelfTimeMS {
			spans = append(spans, name)
		}
		sort.Strings(spans)
		for _, name := range spans {
			fmt.Fprintf(w, "    %-20s %12.3f ms\n", name, rep.SelfTimeMS[name])
		}
		fmt.Fprintf(w, "  trace: %s\n", rep.TraceFile)
	}
	fmt.Fprintf(w, "  stats_digest %s  passes %d  failed_frac %g (%d of %d)\n", rep.StatsDigest, rep.Passes, rep.FailedFrac, rep.Failed, rep.Attempted)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	fmt.Fprintf(w, "  report: %s\n", path)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(data))
}
