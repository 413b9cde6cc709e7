// Guards for the structured tracing subsystem: tracing must be purely
// observational (identical stats on or off), deterministic, and free when
// disabled.
package streamfloat

import (
	"bytes"
	"reflect"
	"testing"
)

func traceTestConfig(t testing.TB) Config {
	t.Helper()
	cfg, err := ConfigFor("SF", OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	cfg.Sanitize = SanitizeOff
	return cfg
}

// TestTracingDoesNotPerturbSimulation is the golden-figure guard for
// tracing-on mode: the event schedule, and therefore every statistic, must
// be identical with the tracer attached.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	cfg := traceTestConfig(t)
	plain, err := Run(cfg, "mv", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	traced, tr, err := RunTraced(cfg, "mv", "SF/OOO8", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, traced.Stats) {
		t.Errorf("tracing perturbed the simulation:\nplain:  %+v\ntraced: %+v", plain.Stats, traced.Stats)
	}
	// And the tracer actually observed the run.
	if tr.Attribution().Loads == 0 || len(tr.Spans()) == 0 || len(tr.Events()) == 0 {
		t.Error("tracer recorded nothing")
	}
	var total uint64
	for _, f := range tr.LinkFlits() {
		total += f
	}
	if total == 0 {
		t.Error("no link flits recorded")
	}
}

// TestTracedRunsAreDeterministic runs the same traced simulation twice and
// requires bit-identical stats, events, spans and attribution.
func TestTracedRunsAreDeterministic(t *testing.T) {
	cfg := traceTestConfig(t)
	resA, trA, err := RunTraced(cfg, "mv", "SF/OOO8", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	resB, trB, err := RunTraced(cfg, "mv", "SF/OOO8", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA.Stats, resB.Stats) {
		t.Error("stats differ across identical traced runs")
	}
	if !reflect.DeepEqual(trA.Events(), trB.Events()) {
		t.Error("event streams differ across identical traced runs")
	}
	if !reflect.DeepEqual(trA.Spans(), trB.Spans()) {
		t.Error("stream spans differ across identical traced runs")
	}
	if trA.Attribution() != trB.Attribution() {
		t.Error("latency attribution differs across identical traced runs")
	}
	var a, b bytes.Buffer
	if err := trA.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := trB.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Chrome exports differ across identical traced runs")
	}
}

// TestTracerDisabledOverhead guards the disabled mode: a machine that had a
// tracer attached and detached must produce identical results to one that
// never saw a tracer, and the detached tracer must hold nothing of the run
// (no events, no spans, no drops), so no probe reached it. The probes'
// wall-clock cost is reported by BenchmarkTraceOverhead.
func TestTracerDisabledOverhead(t *testing.T) {
	cfg := traceTestConfig(t)
	plain, err := Run(cfg, "mv", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(cfg, "mv", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(cfg, "mv", "SF/OOO8", 0)
	m.AttachTracer(tr)
	m.AttachTracer(nil)
	detached, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, detached.Stats) {
		t.Error("attach+detach changed simulation results")
	}
	if ev, sp, dr := len(tr.Events()), len(tr.Spans()), tr.Dropped(); ev != 0 || sp != 0 || dr != 0 {
		t.Errorf("the detached tracer recorded %d events, %d spans and %d drops", ev, sp, dr)
	}
}
