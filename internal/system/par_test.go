package system

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/par"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
)

// parConfig returns a full-size (8x8) machine with the sanitizer forced off,
// so the layout Build picks is also driven by that many goroutines (a
// sanitized machine keeps its layout but runs on one; see RunContext).
func parConfig(t *testing.T, sys string) config.Config {
	t.Helper()
	cfg, err := config.ForSystem(sys, config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize = sanitize.ModeOff
	return cfg
}

// TestPartitionedBuild checks the one layout rule: every machine is built as
// one shard per effective worker (Workers floored at 1 and capped at
// min(par.ShardsFor(tiles), GOMAXPROCS)), tiles round-robin, no shard on the
// root engine, whether or not it is sanitized and however small it is.
func TestPartitionedBuild(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cfg := parConfig(t, "SF")
	if par.ShardsFor(cfg.Tiles()) != 16 {
		t.Fatalf("ShardsFor(%d) = %d, expected 16", cfg.Tiles(), par.ShardsFor(cfg.Tiles()))
	}
	small := cfg
	small.MeshWidth, small.MeshHeight = 2, 2
	cases := []struct {
		cfg            config.Config
		workers, procs int
		mode           sanitize.Mode
		want           int
	}{
		{cfg, 0, 4, sanitize.ModeOff, 1}, {cfg, 1, 4, sanitize.ModeOff, 1},
		{cfg, 2, 4, sanitize.ModeOff, 2}, {cfg, 4, 4, sanitize.ModeOff, 4},
		{cfg, 8, 4, sanitize.ModeOff, 4},    // Workers > GOMAXPROCS
		{cfg, 99, 32, sanitize.ModeOff, 16}, // Workers > the shard bound
		{cfg, 1, 4, sanitize.ModeOn, 1}, {cfg, 4, 4, sanitize.ModeOn, 4},
		{small, 1, 4, sanitize.ModeOn, 1}, {small, 4, 4, sanitize.ModeOff, 1}, // below 16 tiles: one shard
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		c.cfg.Workers, c.cfg.Sanitize = c.workers, c.mode
		m, err := Build(c.cfg, "mv", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d tiles workers=%d GOMAXPROCS=%d sanitize=%v", c.cfg.Tiles(), c.workers, c.procs, c.mode)
		if len(m.Shards) != c.want {
			t.Fatalf("%s: built %d shards, want %d", name, len(m.Shards), c.want)
		}
		for tile := 0; tile < c.cfg.Tiles(); tile++ {
			if m.lay.Shard(tile) != m.Shards[par.ShardOf(tile, c.want)] {
				t.Fatalf("%s: tile %d assigned off the round-robin layout", name, tile)
			}
		}
		for i, sh := range m.Shards {
			if sh.Eng == m.Eng {
				t.Fatalf("%s: shard %d shares the root engine", name, i)
			}
		}
		if (m.Chk != nil) != (c.mode == sanitize.ModeOn) {
			t.Fatalf("%s: checker attached = %v", name, m.Chk != nil)
		}
	}
}

// TestTracerForcesOneWorker: a traced machine keeps whatever layout it was
// built with and is driven by one goroutine (the tracer's ring is shared
// across tiles), with the untraced run's Results.
func TestTracerForcesOneWorker(t *testing.T) {
	withProcs(t, 2)
	cfg := parConfig(t, "SF")
	cfg.Workers = 2
	want, err := RunBenchmark(context.Background(), cfg, "mv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(cfg, "mv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachTracer(NewTracer(cfg, "mv", "SF/OOO8", 0))
	got, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || m.group.Workers != 1 {
		t.Errorf("traced machine: %d shards driven by %d workers, want 2 shards and 1 worker", len(m.Shards), m.group.Workers)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("traced run diverges from untraced:\n want: %+v\n  got: %+v", want.Stats, got.Stats)
	}
}

// withProcs raises GOMAXPROCS to at least n for the duration of the test, so
// multi-worker execution is exercised for real even on single-core CI hosts
// (par.Group clamps workers to GOMAXPROCS).
func withProcs(t *testing.T, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= n {
		return
	}
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runWorkers runs one benchmark on the partitioned machine with the given
// worker count and returns the results.
func runWorkers(t *testing.T, sys, bench string, scale float64, workers int) Results {
	t.Helper()
	withProcs(t, workers)
	cfg := parConfig(t, sys)
	cfg.Workers = workers
	res, err := RunBenchmark(context.Background(), cfg, bench, scale)
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", sys, bench, workers, err)
	}
	if res.Stats.Cycles == 0 || res.Stats.Iterations == 0 {
		t.Fatalf("%s/%s workers=%d: empty run", sys, bench, workers)
	}
	return res
}

// TestWorkerDeterminism is the parallel kernel's core acceptance gate: the
// figure-level spot points (a Fig 13 speedup point, a Fig 14 L3-provenance
// point, a Fig 15 traffic point) must produce bit-identical Results for every
// worker count. The layout follows the worker count, so this also compares
// four different shard layouts, starting from the single-shard workers=1 one.
func TestWorkerDeterminism(t *testing.T) {
	points := []struct{ sys, bench string }{
		{"SF", "mv"},       // Fig 13: speedup spot point
		{"SF", "bfs"},      // Fig 14: L3 request provenance (indirect floats)
		{"Base", "conv3d"}, // Fig 15: NoC traffic spot point
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.sys+"/"+pt.bench, func(t *testing.T) {
			ref := runWorkers(t, pt.sys, pt.bench, 0.02, counts[0])
			ref.Config.Workers = 0
			for _, w := range counts[1:] {
				got := runWorkers(t, pt.sys, pt.bench, 0.02, w)
				got.Config.Workers = 0 // the knob itself is the only allowed difference
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("workers=%d diverges from workers=%d:\n ref: %+v\n got: %+v",
						w, counts[0], ref.Stats, got.Stats)
				}
			}
		})
	}
}

// TestHostKnobsOutsideCacheKey: Workers and Sanitize are host knobs — how
// many goroutines drive the shards and whether probes watch them — with
// bit-identical results for every value (TestWorkerDeterminism,
// TestSanitizeInvariance), so neither may change the canonical encoding or
// the result-cache key.
func TestHostKnobsOutsideCacheKey(t *testing.T) {
	a := parConfig(t, "SF")
	for name, mut := range map[string]func(*config.Config){
		"Workers":  func(c *config.Config) { c.Workers = 8 },
		"Sanitize": func(c *config.Config) { c.Sanitize = sanitize.ModeOn },
	} {
		b := a
		mut(&b)
		if !bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes()) {
			t.Errorf("%s changed CanonicalBytes", name)
		}
		if ka, kb := CacheKey(a, "mv", 0.5), CacheKey(b, "mv", 0.5); ka != kb {
			t.Errorf("%s changed the cache key: %s vs %s", name, ka, kb)
		}
	}
}

// TestShardWorkerProfileLabels: the parallel kernel's worker goroutines must
// carry pprof labels (shard-worker id plus the benchmark), so CPU profiles of
// a sweep attribute simulation time to what is being simulated. The goroutine
// profile is snapshotted mid-run, from a phase barrier, while the helper
// workers are alive and spinning.
func TestShardWorkerProfileLabels(t *testing.T) {
	withProcs(t, 4)
	cfg := parConfig(t, "SF")
	cfg.Workers = 4
	m, err := Build(cfg, "mv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	captured := false
	m.SetPhaseHook(func(int, event.Cycle, stats.Stats) {
		if captured {
			return
		}
		captured = true
		if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
			t.Errorf("goroutine profile: %v", err)
		}
	})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !captured {
		t.Fatal("phase hook never fired")
	}
	out := prof.String()
	for _, want := range []string{"shard-worker", `"benchmark":"mv"`} {
		if !strings.Contains(out, want) {
			t.Errorf("goroutine profile missing label %q", want)
		}
	}
}

// TestPollEvery: the barrier-context poll fires while the shard group drives
// the machine (two workers here, so -race checks the merged snapshot is taken
// with every engine quiescent), one period plus at most the rest of a quantum
// apart, sees the merged counters grow, and stops for good once fn returns
// false.
func TestPollEvery(t *testing.T) {
	withProcs(t, 2)
	cfg := parConfig(t, "Base")
	cfg.Workers = 2
	m, err := Build(cfg, "mv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const period, polls = 256, 8
	var at []event.Cycle
	var iters []uint64
	m.PollEvery(period, func(now event.Cycle, snap stats.Stats) bool {
		at = append(at, now)
		iters = append(iters, snap.Iterations)
		return len(at) < polls
	})
	res, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != polls {
		t.Fatalf("polled %d times, want %d (fn returned false on the last)", len(at), polls)
	}
	prev := event.Cycle(0)
	for i, now := range at {
		if gap := now - prev; gap < period || gap > period+m.group.Quantum {
			t.Errorf("poll %d at cycle %d, %d after the previous: want a gap in [%d, %d]", i, now, gap, period, period+m.group.Quantum)
		}
		if i > 0 && iters[i] < iters[i-1] {
			t.Errorf("poll %d saw %d iterations after %d", i, iters[i], iters[i-1])
		}
		prev = now
	}
	if last := iters[polls-1]; last == 0 || last > res.Stats.Iterations {
		t.Errorf("last poll saw %d iterations, run total %d: want the merged mid-run count", last, res.Stats.Iterations)
	}
}

// TestPartitionedCancellation: a cancelled context stops the partitioned run
// promptly and reports the cancellation.
func TestPartitionedCancellation(t *testing.T) {
	cfg := parConfig(t, "SF")
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBenchmark(ctx, cfg, "mv", 0.02); err == nil {
		t.Fatal("cancelled partitioned run must report an error")
	}
}
