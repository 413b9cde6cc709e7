package system_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// invariancePoints are the figure spot points of TestWorkerDeterminism, one
// sampled point (the BuildPrepared path: sliced programs, functional warm-up,
// phase-hook and barrier-poll snapshots), and the point whose L2 evictions
// race requests for the same line at the home bank inside one quantum: the
// window the checker's eviction-pending count exists for.
type invariancePoint struct {
	name, sys, bench string
	sampled          bool
}

var invariancePoints = []invariancePoint{
	{"fig13", "SF", "mv", false},
	{"fig14", "SF", "bfs", false},
	{"fig15", "Base", "conv3d", false},
	{"sampled", "SF", "mv", true},
	{"evict-window", "Stride", "hotspot3D", false},
}

// run simulates the point on an 8x8 machine with the given sanitizer mode and
// worker count. The echoed Config's two host knobs are normalized,
// so two results compare equal exactly when every simulated statistic does.
func (pt invariancePoint) run(t *testing.T, mode sanitize.Mode, workers int) any {
	t.Helper()
	cfg, err := config.ForSystem(pt.sys, config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize, cfg.Workers = mode, workers
	normalize := func(r *system.Results) { r.Config.Sanitize, r.Config.Workers = sanitize.ModeAuto, 0 }
	if pt.sampled {
		cfg.Sample = config.SampleParams{Intervals: 8}
		got, err := sample.Run(context.Background(), cfg, pt.bench, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		normalize(&got)
		return got
	}
	got, err := system.RunBenchmark(context.Background(), cfg, pt.bench, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	normalize(&got)
	return got
}

// TestShardLayoutInvariance is the license for building one shard per worker:
// how tiles are placed onto engines must not reach the result. Every point is
// built at 1, 2, 4 and 16 shards with the sanitizer's probes on (one driving
// goroutine), and once more at 16 shards unsanitized with two workers, so
// -race sees the windows run concurrently. All five must agree exactly.
//
// Mutation check: making par.cmpOps ignore Tile (so same-cycle ops drain in
// shard-concatenation order) fails this test at 2 shards.
func TestShardLayoutInvariance(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	for _, pt := range invariancePoints {
		t.Run(pt.name, func(t *testing.T) {
			var ref any
			for _, l := range []struct {
				shards, workers int
				mode            sanitize.Mode
			}{
				{1, 1, sanitize.ModeOn}, {2, 1, sanitize.ModeOn}, {4, 1, sanitize.ModeOn},
				{16, 1, sanitize.ModeOn}, {16, 2, sanitize.ModeOff},
			} {
				restore := system.SetLayoutShards(l.shards)
				got := pt.run(t, l.mode, l.workers)
				restore()
				if ref == nil {
					ref = got
				} else if !reflect.DeepEqual(ref, got) {
					t.Errorf("%d shards (sanitize %v, %d workers) diverge from 1 shard:\n ref: %+v\n got: %+v",
						l.shards, l.mode, l.workers, ref, got)
				}
			}
		})
	}
}

// TestSanitizeInvariance is the license for keeping the sanitizer outside the
// result-cache key, and for trusting goldens recorded under `go test`: the
// probes observe the one barrier-drained schedule, they do not select
// another, so a sanitized run and the production (unsanitized) run of the
// same point produce the same Results on the production layout.
//
// Mutation check: dropping the eviction-pending bookkeeping (cache.System's
// evicting count in privateOrPending) trips the MESI probe on the
// evict-window point, on the directory entry of a copy whose eviction update
// is still in the op log.
func TestSanitizeInvariance(t *testing.T) {
	for _, pt := range invariancePoints {
		t.Run(pt.name, func(t *testing.T) {
			on := pt.run(t, sanitize.ModeOn, 1)
			off := pt.run(t, sanitize.ModeOff, 1)
			if !reflect.DeepEqual(on, off) {
				t.Errorf("sanitized run diverges from unsanitized:\n  on: %+v\n off: %+v", on, off)
			}
		})
	}
}
