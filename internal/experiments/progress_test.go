package experiments

import (
	"context"
	"sync"
	"testing"

	"streamfloat/internal/system"
)

// memCache is a minimal in-process ResultCache for tests: no singleflight,
// because a point that two callers compute at once computes the same
// Results twice, and the assertions only care about what is served.
type memCache struct {
	mu sync.Mutex
	m  map[string]system.Results
}

func (c *memCache) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	c.mu.Lock()
	if res, ok := c.m[key]; ok {
		c.mu.Unlock()
		return res, nil
	}
	c.mu.Unlock()
	res, err := compute()
	if err != nil {
		return system.Results{}, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]system.Results{}
	}
	c.m[key] = res
	c.mu.Unlock()
	return res, nil
}

// TestProgressEvents: a Fig 13 sweep reports one start and one completion
// event per point with monotonic cumulative counts, distinct canonical keys,
// and a wall-time estimate once the first computed point lands; re-running
// against the warm cache flags every point as cached.
func TestProgressEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 15 real (tiny) simulations")
	}
	cache := &memCache{}
	var mu sync.Mutex
	var events []ProgressEvent
	opts := Options{
		Scale:      0.02,
		Benchmarks: []string{"nn"},
		Cache:      cache,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	figureTable(t, "13", opts)

	const points = 15 // 3 cores x 5 systems x 1 bench
	if len(events) != 2*points {
		t.Fatalf("got %d events, want %d (start+done per point)", len(events), 2*points)
	}
	keys := map[string]bool{}
	dones, estSeen := 0, false
	for i, ev := range events {
		if ev.Total != points {
			t.Fatalf("event %d Total = %d, want %d", i, ev.Total, points)
		}
		if ev.Key == "" {
			t.Fatalf("event %d has no canonical key", i)
		}
		if ev.Started < ev.Completed+ev.Failed {
			t.Fatalf("event %d inconsistent counts: %+v", i, ev)
		}
		if ev.Done {
			dones++
			keys[ev.Key] = true
			if ev.Err != nil {
				t.Fatalf("event %d unexpected point error: %v", i, ev.Err)
			}
			if ev.EstRemaining > 0 {
				estSeen = true
			}
		}
	}
	if dones != points || len(keys) != points {
		t.Errorf("saw %d completions over %d distinct keys, want %d/%d", dones, len(keys), points, points)
	}
	last := events[len(events)-1]
	if last.Completed != points || last.Cached != 0 || last.Failed != 0 {
		t.Errorf("final event %+v, want %d completed, none cached or failed", last, points)
	}
	if !estSeen {
		t.Error("no completion event carried a wall-time estimate")
	}

	// Second sweep over the warm cache: every completion is a cache hit.
	mu.Lock()
	events = nil
	mu.Unlock()
	figureTable(t, "13", opts)
	last = events[len(events)-1]
	if last.Cached != points || last.Completed != points {
		t.Errorf("warm final event %+v, want all %d cached", last, points)
	}
	if last.EstRemaining != 0 {
		t.Errorf("warm sweep estimated %v remaining from zero computed points", last.EstRemaining)
	}
}

// TestProgressEventsLatency: the traced latency figure reports progress like
// every other sweep: a start and a finish per point, ending complete.
func TestProgressEventsLatency(t *testing.T) {
	var mu sync.Mutex
	var events []ProgressEvent
	opts := Options{
		Scale:       0.02,
		Benchmarks:  []string{"nn"},
		Parallelism: 1,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	figureTable(t, "latency", opts)

	points := 2 * len(opts.Benchmarks) // Base and SF per benchmark
	if len(events) != 2*points {
		t.Fatalf("got %d events, want %d (start+done per point)", len(events), 2*points)
	}
	for i, ev := range events {
		if ev.Total != points || ev.Key == "" {
			t.Fatalf("event %d = %+v, want Total %d and a canonical key", i, ev, points)
		}
	}
	if last := events[len(events)-1]; !last.Done || last.Completed != last.Total || last.Failed != 0 {
		t.Errorf("final event %+v, want all %d points completed", last, points)
	}
}
