package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/system"
	"streamfloat/internal/trace"
)

// TracedRun executes one simulation with the structured tracer attached and
// returns the results together with the finished tracer; ctx cancels it
// mid-flight. It is the building block behind the latency figure and the
// sfexp -trace flag.
func TracedRun(ctx context.Context, opts Options, systemName string, core config.CoreKind, bench string) (system.Results, *trace.Tracer, error) {
	cfg, err := config.ForSystem(systemName, core)
	if err != nil {
		return system.Results{}, nil, err
	}
	cfg.Sanitize = opts.Sanitize
	return system.RunBenchmarkTraced(ctx, cfg, bench, systemName+"/"+core.String(), opts.scale())
}

// latencyBreakdown regenerates the per-load latency attribution table: where
// demand-load cycles go (core wait, L1, L2, NoC, L3, DRAM) for Base and SF
// on OOO8, from the tracer's per-load probes. This is the tabular face of
// the trace subsystem; `sftrace summarize` renders the same breakdown for a
// single exported run.
func latencyBreakdown(opts Options) (*Table, error) {
	systems := []string{"Base", "SF"}
	benches := opts.benchmarks()
	keys := make([]runKey, len(systems)*len(benches))
	for si, sys := range systems {
		for bi, b := range benches {
			keys[si*len(benches)+bi] = runKey{bench: b, system: sys, core: config.OOO8}
		}
	}
	attrs := make([]trace.TileAttribution, len(keys))
	// Route the fan-out through the same guarded worker path as runAll, and
	// each point through the same fault.Guard as runPoint, so traced runs
	// inherit panic containment, pprof labels, cancellation, the point
	// deadline and stall watchdog, and keep-going semantics.
	errs := fanOut(opts.context(), opts.parallelism(), len(keys), !opts.KeepGoing, func(i int) []string {
		return []string{
			"figure", opts.figureLabel(),
			"benchmark", keys[i].bench,
			"config", keys[i].system + "/" + keys[i].core.String(),
		}
	}, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := keys[i]
		var attr trace.TileAttribution
		err := fault.Guard(ctx, "", opts.StallTimeout, opts.PointTimeout, func(ctx context.Context) error {
			if hook := testFaultHook; hook != nil {
				hook(k.bench, k.system, k.core)
			}
			_, tr, err := TracedRun(ctx, opts, k.system, k.core, k.bench)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.bench, k.system, err)
			}
			attr = tr.Attribution()
			return nil
		})
		if err != nil {
			return err // a killed point's goroutine may still own attr
		}
		attrs[i] = attr
		return nil
	})
	if opts.KeepGoing {
		if err := keepGoingError(opts.context(), opts, keys, errs); err != nil {
			return nil, err
		}
	} else if err := sweepError(keys, errs); err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Load latency attribution (OOO8): where demand-load cycles go",
		Header: []string{"benchmark", "system", "loads", "avg-lat",
			"core-wait", "l1", "l2", "noc", "l3", "dram"},
	}
	for bi, b := range benches {
		for si, sys := range systems {
			a := attrs[si*len(benches)+bi]
			total := float64(a.TotalCycles)
			if total == 0 {
				total = 1
			}
			avg := 0.0
			if a.Loads > 0 {
				avg = float64(a.TotalCycles) / float64(a.Loads)
			}
			row := []string{b, sys, fmt.Sprintf("%d", a.Loads), fmt.Sprintf("%.1f", avg)}
			for bk := trace.Bucket(0); bk < trace.NumBuckets; bk++ {
				share := float64(a.Cycles[bk]) / total
				row = append(row, pct(share))
				t.metric(fmt.Sprintf("%s-%s-%s", sys, b, bk), share)
			}
			t.Rows = append(t.Rows, row)
			t.metric(fmt.Sprintf("%s-%s-avg-latency", sys, b), avg)
		}
	}
	t.Notes = append(t.Notes,
		"shares are fractions of total demand-load wait cycles; dram includes the memory-controller NoC legs",
		"loads merged into an in-flight miss charge their post-L2 wait to noc (documented approximation)")
	return t, nil
}

// figRunner is one named figure generator.
type figRunner struct {
	name string
	fn   func(Options) (*Table, error)
}

// figureRunners lists every named figure in presentation order, including
// the ones All renders specially (area simulates nothing, ablations closes
// the report) and the trace-derived latency appendix.
func figureRunners() []figRunner {
	return []figRunner{
		{"fig2", fig02}, {"fig13", fig13}, {"fig14", fig14}, {"fig15", fig15},
		{"fig16", fig16}, {"fig17", fig17}, {"fig18", fig18}, {"fig19", fig19},
		{"area", areaTable},
		{"ablations", ablations},
		{"latency", latencyBreakdown},
	}
}

// Names lists the figure ids WriteFigureCSVs emits, in order.
func Names() []string {
	rs := figureRunners()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names
}

// WriteFigureCSVs regenerates every figure and writes one CSV per figure
// into dir (created if missing), named <figure>.csv. This is the `-fig all
// -csv -out dir/` path of sfexp.
func WriteFigureCSVs(opts Options, dir string) error {
	return writeCSVs(figureRunners(), opts, dir)
}

func writeCSVs(runners []figRunner, opts Options, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range runners {
		t, err := runFigure(r.name, r.fn, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		f, err := os.Create(filepath.Join(dir, r.name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
