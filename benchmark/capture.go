package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/system"
)

// capture is a pass-through experiments.PointCache: it memoizes nothing, so a
// sweep through it is as cold as a sweep with no cache. It exists to see a
// sweep from outside: it keeps every point's Results (for sim_mips and the
// digest) and opens the point / cache.do / compute spans of a traced pass.
// inner, when set, is the real cache (a cluster.Client) the calls are
// forwarded to.
type capture struct {
	inner experiments.ResultCache
	rec   *recorder
	root  *spanRef

	mu      sync.Mutex
	results map[string]system.Results
	points  map[string]*spanRef
	lat     []time.Duration // per point, start to finish
	failed  int
}

func newCapture(inner experiments.ResultCache, rec *recorder, root *spanRef) *capture {
	return &capture{
		inner: inner, rec: rec, root: root,
		results: map[string]system.Results{},
		points:  map[string]*spanRef{},
	}
}

// progress is the sweep's experiments.ProgressFunc.
func (c *capture) progress(ev experiments.ProgressEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ev.Done {
		c.points[ev.Key] = c.rec.start(c.root, spanPoint)
		return
	}
	c.points[ev.Key].end()
	c.lat = append(c.lat, ev.PointWall)
	if ev.Err != nil {
		c.failed++
	}
}

func (c *capture) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	return c.do(ctx, key, compute, func(ctx context.Context, compute func() (system.Results, error)) (system.Results, error) {
		if c.inner == nil {
			return compute()
		}
		return c.inner.Do(ctx, key, compute)
	})
}

func (c *capture) DoPoint(ctx context.Context, key string, cfg config.Config, bench string, scale float64, compute func() (system.Results, error)) (system.Results, error) {
	pc, ok := c.inner.(experiments.PointCache)
	if !ok {
		return c.Do(ctx, key, compute)
	}
	return c.do(ctx, key, compute, func(ctx context.Context, compute func() (system.Results, error)) (system.Results, error) {
		return pc.DoPoint(ctx, key, cfg, bench, scale, compute)
	})
}

func (c *capture) do(ctx context.Context, key string, compute func() (system.Results, error),
	call func(context.Context, func() (system.Results, error)) (system.Results, error)) (system.Results, error) {
	c.mu.Lock()
	parent := c.points[key]
	c.mu.Unlock()
	do := c.rec.start(parent, spanCacheDo)
	defer do.end()
	res, err := call(withSpan(ctx, do), func() (system.Results, error) {
		sp := c.rec.start(do, spanCompute)
		defer sp.end()
		return compute()
	})
	if err == nil {
		c.mu.Lock()
		c.results[key] = res
		c.mu.Unlock()
	}
	return res, err
}

// sweepPlan is the sweep every sweep workload runs: Fig 13's 5 systems x 3
// cores over the given benchmarks, on the production 16-shard schedule. The
// sanitizer is pinned off on every path: inside a test binary "auto" resolves
// to on, which would move the local side to the single-engine schedule while
// server-side figure jobs stay partitioned, breaking cluster == local.
type sweepPlan struct {
	benches     []string
	scale       float64
	parallelism int
	sample      config.SampleParams
}

// sweepOut is what one sweep pass produced.
type sweepOut struct {
	table   *experiments.Table
	results map[string]system.Results
	wall    time.Duration
	lat     []time.Duration
	failed  int
}

func (o sweepOut) instructions() uint64 {
	var n uint64
	for _, r := range o.results {
		n += r.Stats.Instructions
	}
	return n
}

func (o sweepOut) digest() string { return statsDigest(o.results, o.table) }

// run executes the sweep through cache (nil = no cache) and times it.
func (p sweepPlan) run(ctx context.Context, cache experiments.ResultCache, rec *recorder) (sweepOut, error) {
	root := rec.start(nil, spanSweep)
	cp := newCapture(cache, rec, root)
	opts := experiments.Options{
		Scale:       p.scale,
		Benchmarks:  p.benches,
		Parallelism: p.parallelism,
		Workers:     1,
		Sanitize:    sanitizeOff,
		Sample:      p.sample,
		Context:     ctx,
		Cache:       cp,
		Progress:    cp.progress,
	}
	fig13, ok := experiments.ByName("13")
	if !ok {
		return sweepOut{}, fmt.Errorf("experiments: figure 13 not registered")
	}
	begin := time.Now()
	table, err := fig13(opts)
	wall := time.Since(begin)
	root.end()
	if err != nil {
		return sweepOut{}, fmt.Errorf("fig13 sweep: %w", err)
	}
	return sweepOut{table: table, results: cp.results, wall: wall, lat: cp.lat, failed: cp.failed}, nil
}
