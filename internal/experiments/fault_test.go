package experiments

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// setFaultHook installs a test-only fault hook for the duration of the test.
func setFaultHook(t *testing.T, hook func(bench, sys string, core config.CoreKind)) {
	t.Helper()
	testFaultHook = hook
	t.Cleanup(func() { testFaultHook = nil })
}

// TestKeepGoingInjectedPanic is the partial-results contract: a sweep where
// one point panics completes under KeepGoing with that point marked failed
// and every other point bit-identical to a clean run.
func TestKeepGoingInjectedPanic(t *testing.T) {
	keys := []runKey{
		{bench: "nn", system: "Base", core: config.OOO8},
		{bench: "nn", system: "SF", core: config.OOO8},
		{bench: "conv3d", system: "SF", core: config.OOO8},
	}
	opts := Options{Scale: 0.05}
	clean, err := runAll(context.Background(), opts, keys)
	if err != nil {
		t.Fatal(err)
	}

	setFaultHook(t, func(bench, sys string, core config.CoreKind) {
		if bench == "nn" && sys == "SF" {
			panic("injected point fault")
		}
	})
	opts.KeepGoing = true
	got, _, pts, err := runRecords(context.Background(), opts, keys)
	if err != nil {
		t.Fatalf("keep-going sweep must complete: %v", err)
	}

	if len(pts) != 1 {
		t.Fatalf("failures = %+v, want exactly the injected one", pts)
	}
	f := pts[0]
	if f.Bench != "nn" || f.System != "SF" || f.Kind != fault.KindPanic {
		t.Errorf("failure = %+v, want nn/SF panic", f)
	}
	if !strings.Contains(f.Msg, "injected point fault") {
		t.Errorf("failure msg %q lost the panic value", f.Msg)
	}
	for i, k := range keys {
		if k.bench == "nn" && k.system == "SF" {
			if !reflect.DeepEqual(got[i], system.Results{}) {
				t.Error("failed point must report zero results")
			}
			continue
		}
		if !reflect.DeepEqual(got[i], clean[i]) {
			t.Errorf("%s/%s: keep-going result diverged from clean run", k.bench, k.system)
		}
	}
}

// TestKeepGoingAllFailed: when every point fails, keep-going still returns
// an error — an all-failure sweep has no partial results worth rendering.
func TestKeepGoingAllFailed(t *testing.T) {
	setFaultHook(t, func(string, string, config.CoreKind) {
		panic("injected point fault")
	})
	opts := Options{Scale: 0.05, KeepGoing: true}
	_, err := runAll(context.Background(), opts, []runKey{
		{bench: "nn", system: "SF", core: config.OOO8},
	})
	if err == nil {
		t.Fatal("all-failed sweep must error")
	}
	pe, ok := fault.As(err)
	if !ok || pe.Kind != fault.KindPanic {
		t.Fatalf("err = %v, want a typed panic PointError", err)
	}
}

// TestKeepGoingPointTimeout: a point overrunning Options.PointTimeout is
// killed by the watchdog and classified as a timeout, not a panic.
func TestKeepGoingPointTimeout(t *testing.T) {
	setFaultHook(t, func(string, string, config.CoreKind) {
		time.Sleep(300 * time.Millisecond)
	})
	opts := Options{Scale: 0.05, KeepGoing: true, PointTimeout: 30 * time.Millisecond}
	_, err := runAll(context.Background(), opts, []runKey{
		{bench: "nn", system: "SF", core: config.OOO8},
	})
	pe, ok := fault.As(err)
	if !ok {
		t.Fatalf("err = %v, want a typed PointError", err)
	}
	if pe.Kind != fault.KindTimeout {
		t.Errorf("kind = %v, want timeout", pe.Kind)
	}
	if pe.Deterministic() {
		t.Error("a timeout must not be deterministic (it must stay retryable)")
	}
}

// TestRunFigureFailureFootnotes: under KeepGoing, a figure provisions the
// failure log and renders each failed point as a table footnote. Mutated
// points that share bench/system/core fail under their own axis labels.
func TestRunFigureFailureFootnotes(t *testing.T) {
	setFaultHook(t, func(bench, sys string, core config.CoreKind) {
		if bench == "conv3d" {
			panic("injected point fault")
		}
	})
	fig := &figure{
		name: "faulty",
		outer: []setting{
			{label: "wide", mutate: func(c *config.Config) { c.LinkBits = 512 }},
			{label: "narrow", mutate: func(c *config.Config) { c.LinkBits = 128 }},
		},
		inner: systems("SF"),
		rows:  func(*Table, *grid) {},
	}
	tb, err := fig.run(Options{Scale: 0.05, Benchmarks: []string{"nn", "conv3d"}, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	var variants []string
	for _, f := range tb.Failures {
		variants = append(variants, f.Variant)
	}
	if !reflect.DeepEqual(variants, []string{"narrow", "wide"}) {
		t.Fatalf("table failures = %+v, want conv3d/SF under narrow then wide", tb.Failures)
	}
	for _, variant := range variants {
		found := false
		for _, n := range tb.Notes {
			if strings.Contains(n, "FAILED conv3d/SF/OOO8("+variant+")") && strings.Contains(n, "panic") {
				found = true
			}
		}
		if !found {
			t.Errorf("no FAILED footnote for %s in notes: %q", variant, tb.Notes)
		}
	}
}

// TestKeepGoingTableEncodes: a keep-going figure whose failed point is a
// speedup's denominator still renders as JSON, with that speedup recorded
// as 0 instead of +Inf, which encoding/json refuses.
func TestKeepGoingTableEncodes(t *testing.T) {
	setFaultHook(t, func(bench, sys string, core config.CoreKind) {
		if sys == "SF" && core == config.IO4 {
			panic("injected point fault")
		}
	})
	tb := figureTable(t, "13", Options{Scale: 0.02, Benchmarks: []string{"nn"}, KeepGoing: true})
	if len(tb.Failures) != 1 {
		t.Fatalf("table failures = %+v, want the SF/IO4 point", tb.Failures)
	}
	if v, ok := tb.Metrics["SF-IO4-speedup"]; !ok || v != 0 {
		t.Errorf("SF-IO4-speedup = %v (recorded %v), want 0", v, ok)
	}
	if err := WriteJSON(io.Discard, []NamedTable{{Name: "13", Table: tb}}); err != nil {
		t.Errorf("keep-going table does not encode: %v", err)
	}
}

// TestLatencyCancelMidPoint: the latency figure's traced simulations observe
// the sweep context, so a cancel lands within about a second instead of
// after every traced point has run to completion.
func TestLatencyCancelMidPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fn, _ := ByName("latency")
	done := make(chan error, 1)
	go func() {
		_, err := fn(Options{Scale: 0.5, Benchmarks: []string{"nn"}, Context: ctx})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(cancelled); d > time.Second {
			t.Errorf("latency sweep returned %v after cancel, want <= 1s", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("latency sweep ignored cancellation")
	}
}

// TestLatencyPointTimeoutKeepGoing: a latency point overrunning
// Options.PointTimeout is killed by the same watchdog as any other point and
// recorded as a timeout failure, while the rest of the table still renders.
// The deadline is at least 4 s and three times a healthy traced point timed
// on this host first, so the healthy point finishes under -race on a slow
// host too.
func TestLatencyPointTimeoutKeepGoing(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a multi-second point deadline")
	}
	opts := Options{Scale: 0.05, Benchmarks: []string{"nn"}, Sanitize: sanitize.ModeOff}
	start := time.Now()
	if _, _, err := TracedRun(context.Background(), opts, "Base", config.OOO8, "nn"); err != nil {
		t.Fatal(err)
	}
	deadline := max(4*time.Second, 3*time.Since(start))
	setFaultHook(t, func(bench, sys string, core config.CoreKind) {
		if sys == "SF" {
			time.Sleep(deadline + 500*time.Millisecond)
		}
	})
	opts.KeepGoing, opts.PointTimeout = true, deadline
	fn, _ := ByName("latency")
	tb, err := fn(opts)
	if err != nil {
		t.Fatalf("keep-going latency sweep must complete: %v", err)
	}
	if len(tb.Failures) != 1 {
		t.Fatalf("failures = %+v, want the SF point's timeout", tb.Failures)
	}
	if f := tb.Failures[0]; f.System != "SF" || f.Kind != fault.KindTimeout {
		t.Errorf("failure = %+v, want an SF timeout", f)
	}
}
