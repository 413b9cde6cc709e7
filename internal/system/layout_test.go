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

// TestShardLayoutInvariance is the license for building one shard per worker:
// how tiles are placed onto engines must not reach the result. The figure
// spot points of TestWorkerDeterminism, plus one sampled point (the
// BuildPrepared path: sliced programs, functional warm-up, phase-hook
// snapshots), are built at 1, 2, 4 and 16 shards and must agree exactly. Two
// workers drive every layout that has two shards, so -race sees the windows
// run concurrently.
func TestShardLayoutInvariance(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	points := []struct {
		name, sys, bench string
		sampled          bool
	}{
		{"fig13", "SF", "mv", false},
		{"fig14", "SF", "bfs", false},
		{"fig15", "Base", "conv3d", false},
		{"sampled", "SF", "mv", true},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			cfg, err := config.ForSystem(pt.sys, config.OOO8)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sanitize = sanitize.ModeOff // the sanitizer keeps a machine unpartitioned
			cfg.Workers = 2
			scale := 0.02
			if pt.sampled {
				cfg.Sample = config.SampleParams{Intervals: 8}
				scale = 0.1
			}
			var ref any
			for _, shards := range []int{1, 2, 4, 16} {
				restore := system.SetLayoutShards(shards)
				var got any
				if pt.sampled {
					got, err = sample.RunEstimate(context.Background(), cfg, pt.bench, scale)
				} else {
					got, err = system.RunBenchmark(context.Background(), cfg, pt.bench, scale)
				}
				restore()
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if ref == nil {
					ref = got
				} else if !reflect.DeepEqual(ref, got) {
					t.Errorf("%d shards diverge from 1 shard:\n ref: %+v\n got: %+v", shards, ref, got)
				}
			}
		})
	}
}
