// Throughput canaries for the simulator itself, not paper figures:
//
//	go test -run '^$' -bench 'SingleRun|TraceOverhead' -benchtime 1x .
//
// Paper figures are regenerated by sfexp (-fig N) and measured end to end by
// the benchmark/ harness (bash benchmark/run.sh); see EXPERIMENTS.md.
package streamfloat

import (
	"fmt"
	"testing"
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
// attached: the delta between the two is the cost of tracing-on mode (the
// disabled mode is guarded separately by TestTracerDisabledOverhead).
func BenchmarkTraceOverhead(b *testing.B) {
	cfg := canaryConfig(b)
	for i := 0; i < b.N; i++ {
		res, tr, err := RunTraced(cfg, "mv", "SF/OOO8", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Cycles), "sim-cycles")
		b.ReportMetric(float64(tr.Attribution().Loads), "probed-loads")
	}
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
