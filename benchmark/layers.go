package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/system"
)

// simPoint is one simulation the harness drives itself.
type simPoint struct {
	cfg   config.Config
	bench string
	scale float64
}

// sweepPoints lists the sweep set's points the way experiments.Fig13 builds
// them: same configurations, same canonical keys.
func sweepPoints(benches []string, scale float64) ([]simPoint, error) {
	var pts []simPoint
	for _, core := range []config.CoreKind{config.IO4, config.OOO4, config.OOO8} {
		for _, sys := range []string{"Base", "Stride", "Bingo", "SS", "SF"} {
			for _, bench := range benches {
				cfg, err := config.ForSystem(sys, core)
				if err != nil {
					return nil, err
				}
				cfg.Sanitize = sanitizeOff
				cfg.Workers = 1
				pts = append(pts, simPoint{cfg, bench, scale})
			}
		}
	}
	return pts, nil
}

// driver is a workload whose simulations the harness can also drive itself,
// point by point, for the system-layer metrics.
type driver interface {
	drivePoints() ([]simPoint, map[string]system.Results, error)
}

func (w *localSweep) drivePoints() ([]simPoint, map[string]system.Results, error) {
	if w.plan.sample.Enabled() {
		// The sampled estimator builds its own machines; only in-program
		// spans could split it.
		return nil, nil, nil
	}
	pts, err := sweepPoints(w.plan.benches, w.plan.scale)
	return pts, w.ref.results, err
}

func (w *oneSim) drivePoints() ([]simPoint, map[string]system.Results, error) {
	cfg := w.cfg
	cfg.Workers = w.p
	pt := simPoint{cfg, oneSimBench, w.sizes.simScale}
	return []simPoint{pt}, map[string]system.Results{system.CacheKey(cfg, pt.bench, pt.scale): w.ref}, nil
}

// driveSystem runs each point through system.Build and Machine.RunContext
// directly, one at a time, with a span around each call, and reads the host
// cost of the machine model from outside: build and run time, allocations
// (runtime.MemStats deltas, meaningful because nothing else runs), fired
// events over every engine of the machine, and the simulated access counts
// the run time is divided by. A host-time split inside the machine model
// needs in-program spans and is left to a later change.
//
// want, when non-nil, holds the reference Results by cache key; a point that
// simulates to anything else is an error.
func driveSystem(ctx context.Context, pts []simPoint, want map[string]system.Results, rec *recorder) (map[string]float64, error) {
	var (
		build, run              time.Duration
		events, l3, hops, elems uint64
		mallocs, allocBytes     uint64
		before, after           runtime.MemStats
		root                    = rec.start(nil, spanSweep)
	)
	defer root.end()
	for _, pt := range pts {
		runtime.ReadMemStats(&before)
		sp := rec.start(root, spanBuild)
		t0 := time.Now()
		m, err := system.Build(pt.cfg, pt.bench, pt.scale)
		t1 := time.Now()
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = rec.start(root, spanRun)
		res, err := m.RunContext(ctx, 0)
		t2 := time.Now()
		sp.end()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		build += t1.Sub(t0)
		run += t2.Sub(t1)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		events += m.Eng.Fired()
		for _, sh := range m.Shards {
			events += sh.Eng.Fired()
		}
		l3 += res.Stats.L3Hits + res.Stats.L3Misses
		hops += res.Stats.TotalFlitHops()
		elems += res.Stats.SEFIFOAccesses
		if want != nil {
			key := system.CacheKey(pt.cfg, pt.bench, pt.scale)
			ref, ok := want[key]
			if !ok || !bytes.Equal(resultJSON(ref), resultJSON(res)) {
				return nil, fmt.Errorf("harness-driven %s %s differs from the sweep's Results", pt.bench, pt.cfg.Label())
			}
		}
	}
	n := float64(len(pts))
	per := func(count uint64) float64 {
		if count == 0 {
			return 0
		}
		return float64(run.Nanoseconds()) / float64(count)
	}
	return map[string]float64{
		"system.build_ms_per_point": ms(build) / n,
		"system.run_ms_per_point":   ms(run) / n,
		"system.allocs_per_point":   float64(mallocs) / n,
		"system.alloc_mb_per_point": float64(allocBytes) / n / (1 << 20),
		"event.events_per_s":        float64(events) / run.Seconds(),
		"cache.l3_accesses":         float64(l3),
		"cache.ns_per_l3_access":    per(l3),
		"noc.flit_hops":             float64(hops),
		"noc.ns_per_flit_hop":       per(hops),
		"core.stream_elems":         float64(elems),
		"core.ns_per_stream_elem":   per(elems),
	}, nil
}
