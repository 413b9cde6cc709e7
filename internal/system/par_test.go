package system

import (
	"bytes"
	"context"
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
// so Build takes the partitioned-kernel path (the sanitizer requires the
// legacy total event order; see BuildPrepared).
func parConfig(t *testing.T, sys string) config.Config {
	t.Helper()
	cfg, err := config.ForSystem(sys, config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize = sanitize.ModeOff
	return cfg
}

// TestPartitionedBuild checks the shard layout the builder produces: one
// non-direct shard per effective worker (Workers floored at 1 and capped at
// min(par.ShardsFor(tiles), GOMAXPROCS)), tiles round-robin, engines private;
// a sanitized or small machine stays unpartitioned.
func TestPartitionedBuild(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cfg := parConfig(t, "SF")
	if par.ShardsFor(cfg.Tiles()) != 16 {
		t.Fatalf("ShardsFor(%d) = %d, expected 16", cfg.Tiles(), par.ShardsFor(cfg.Tiles()))
	}
	cases := []struct{ workers, procs, want int }{
		{0, 4, 1}, {1, 4, 1}, {2, 4, 2}, {4, 4, 4},
		{8, 4, 4},    // Workers > GOMAXPROCS
		{99, 32, 16}, // Workers > the shard bound
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		cfg.Workers = c.workers
		m, err := Build(cfg, "mv", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Shards) != c.want || m.group == nil {
			t.Fatalf("workers=%d GOMAXPROCS=%d: built %d shards, want %d", c.workers, c.procs, len(m.Shards), c.want)
		}
		for tile, sh := range m.tileShard {
			if sh != m.Shards[par.ShardOf(tile, c.want)] {
				t.Fatalf("workers=%d: tile %d assigned off the round-robin layout", c.workers, tile)
			}
		}
		for i, sh := range m.Shards {
			if sh.Eng == m.Eng {
				t.Fatalf("workers=%d: shard %d shares the root engine", c.workers, i)
			}
			if sh.Direct() {
				t.Fatalf("workers=%d: shard %d is direct on a partitioned machine", c.workers, i)
			}
		}
	}
	cfg.Workers = 1

	san := cfg
	san.Sanitize = sanitize.ModeOn
	ms, err := Build(san, "mv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Shards != nil {
		t.Fatal("sanitized machine must stay on the legacy unpartitioned path")
	}

	small := cfg
	small.MeshWidth, small.MeshHeight = 2, 2
	msm, err := Build(small, "mv", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if msm.Shards != nil {
		t.Fatal("4-tile machine must stay on the legacy unpartitioned path")
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
		{"SF", "mv"},      // Fig 13: speedup spot point
		{"SF", "bfs"},     // Fig 14: L3 request provenance (indirect floats)
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

// TestWorkersKnobOutsideCacheKey: Workers is an execution knob — it must not
// change the canonical encoding or the result-cache key.
func TestWorkersKnobOutsideCacheKey(t *testing.T) {
	a := parConfig(t, "SF")
	b := a
	b.Workers = 8
	if !reflect.DeepEqual(a.CanonicalBytes(), b.CanonicalBytes()) {
		t.Error("Workers changed CanonicalBytes")
	}
	ka := CacheKey(a, "mv", 0.5)
	kb := CacheKey(b, "mv", 0.5)
	if ka != kb {
		t.Errorf("Workers changed the cache key: %s vs %s", ka, kb)
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
