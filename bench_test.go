// Throughput canaries for the simulator itself, not paper figures:
//
//	go test -run '^$' -bench 'SingleRun|TraceOverhead' -benchtime 1x .
//
// Paper figures are regenerated by sfexp (-fig N) and measured end to end by
// the benchmark/ harness (bash benchmark/run.sh); see EXPERIMENTS.md.
package streamfloat

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// canaryConfig is the mid-sized configuration both canaries simulate. The
// sanitizer is off explicitly: inside a test binary the auto mode would turn
// probes on and taint the throughput numbers.
func canaryConfig(b *testing.B) Config {
	cfg, err := ConfigFor("SF", OOO8)
	if err != nil {
		b.Fatal(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Sanitize = SanitizeOff
	return cfg
}

// BenchmarkSingleRun measures raw simulator throughput on one configuration.
func BenchmarkSingleRun(b *testing.B) {
	cfg := canaryConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, "mv", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Cycles), "sim-cycles")
	}
}

// BenchmarkTraceOverhead is BenchmarkSingleRun with the structured tracer
// attached: the delta between the two is the cost of tracing-on mode. Off
// the clock, it also times a plain run against a run of a machine whose
// tracer was attached and detached and reports the ratio as disabled/plain:
// the disabled probes are single pointer compares, so it stays within noise
// of 1 (a regression would blow far past 1.5).
func BenchmarkTraceOverhead(b *testing.B) {
	cfg := canaryConfig(b)
	var plain, disabled time.Duration
	for i := 0; i < b.N; i++ {
		res, tr, err := RunTraced(cfg, "mv", "SF/OOO8", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Cycles), "sim-cycles")
		b.ReportMetric(float64(tr.Attribution().Loads), "probed-loads")
		b.StopTimer()
		plain += timedRun(b, cfg, nil)
		disabled += timedRun(b, cfg, NewTracer(cfg, "mv", "SF/OOO8", 0))
		b.StartTimer()
	}
	b.ReportMetric(float64(disabled)/float64(plain), "disabled/plain")
}

// timedRun times one run of the canary point; a non-nil tr is attached and
// detached before it.
func timedRun(b *testing.B, cfg Config, tr *Tracer) time.Duration {
	m, err := Build(cfg, "mv", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	if tr != nil {
		m.AttachTracer(tr)
		m.AttachTracer(nil)
	}
	runtime.GC() // start both runs without the other's garbage
	start := time.Now()
	if _, err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	d := time.Since(start)
	m.Release() // hand the next run recycled cache slabs, as RunTraced does
	return d
}

// Example of the one-call API (compiled and run by go test).
func ExampleRun() {
	cfg, err := ConfigFor("SF", IO4)
	if err != nil {
		panic(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	res, err := Run(cfg, "nn", 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Benchmark, res.Stats.Cycles > 0, res.Stats.StreamsFloated > 0)
	// Output: nn true true
}
