package system

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"streamfloat/internal/event"
)

func TestCacheKeyStability(t *testing.T) {
	cfg := testConfig("SF")
	k1 := CacheKey(cfg, "nn", 0.05)
	if k2 := CacheKey(cfg, "nn", 0.05); k2 != k1 {
		t.Errorf("same point hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}
	for name, other := range map[string]string{
		"benchmark": CacheKey(cfg, "mv", 0.05),
		"scale":     CacheKey(cfg, "nn", 0.1),
		"config":    CacheKey(testConfig("Base"), "nn", 0.05),
	} {
		if other == k1 {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}

// TestCacheKeyNoLengthAliasing: the (benchmark, scale) suffix is
// length-prefixed, so crafted name/scale pairs cannot collide by
// concatenation.
func TestCacheKeyNoLengthAliasing(t *testing.T) {
	cfg := testConfig("Base")
	if CacheKey(cfg, "nn", 1) == CacheKey(cfg, "n", 1) {
		t.Error("benchmark names of different length alias")
	}
}

// TestResultsJSONRoundTrip: Results must survive the cache's JSON encoding
// exactly — reflect.DeepEqual after a marshal/unmarshal cycle — since the
// on-disk store serves unmarshalled bytes in place of fresh simulations.
func TestResultsJSONRoundTrip(t *testing.T) {
	res, err := RunBenchmark(context.Background(), testConfig("SF"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("Results changed across JSON round-trip:\n got %+v\nwant %+v", back, res)
	}
}

// TestRunContextPreCancelled: an already-cancelled context aborts before the
// first event fires.
func TestRunContextPreCancelled(t *testing.T) {
	m, err := Build(testConfig("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := m.fired(); n != 0 {
		t.Errorf("fired %d events under a pre-cancelled context, want 0", n)
	}
}

// TestRunContextCancelMidRun cancels from inside the event stream and checks
// promptness: the stop poll runs once per quantum, so the run must end with
// the window the cancel fired in, not drain the remaining millions of events.
func TestRunContextCancelMidRun(t *testing.T) {
	m, err := Build(testConfig("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel deterministically once the machine is mid-simulation, from an
	// event on the engine that drives tile 0.
	const cancelAt = 100
	m.Shards[0].Eng.At(cancelAt, func(event.Cycle) { cancel() })

	_, err = m.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if end := cancelAt + m.group.Quantum; m.now() > end {
		t.Errorf("ran to cycle %d after a cancel at %d, want <= %d (the end of that quantum)", m.now(), cancelAt, end)
	}
	// A full run of this point takes far more events than the abort did.
	ref, err := Build(testConfig("Base"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	if ref.fired() <= m.fired() {
		t.Skipf("reference run too short (%d events) to demonstrate early abort", ref.fired())
	}
}

// TestRunContextBackgroundMatchesRun: RunContext with a background context
// must reproduce Run exactly (bit-equal results) — the determinism suite
// depends on it.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	m1, err := Build(testConfig("SF"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := m1.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(testConfig("SF"), "nn", testScale)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("RunContext(Background) diverged from Run")
	}
}
