package system_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// recyclePoint is one sweep point of the recycling oracle.
type recyclePoint struct {
	name  string
	cfg   config.Config
	bench string
	scale float64
}

func newRecyclePoint(t *testing.T, sys string, core config.CoreKind, bench string, scale float64, mode sanitize.Mode) recyclePoint {
	cfg, err := config.ForSystem(sys, core)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize = mode
	return recyclePoint{name: sys + "/" + core.String() + " " + bench, cfg: cfg, bench: bench, scale: scale}
}

// run takes the point through the entry point production uses for it, so the
// machine is released exactly when a sweep would release it.
func (p recyclePoint) run(ctx context.Context) (any, error) {
	if p.cfg.Sample.Enabled() {
		return sample.RunEstimate(ctx, p.cfg, p.bench, p.scale)
	}
	return system.RunBenchmark(ctx, p.cfg, p.bench, p.scale)
}

// cancelMidFlight runs p under a context that is cancelled once the event
// loop has published progress, so the abandoned machine holds dirtied,
// pool-drawn slabs. It must come back as an error, and (checked by what runs
// next) its slabs must not come back at all.
func (p recyclePoint) cancelMidFlight(t *testing.T) {
	hb := &fault.Heartbeat{}
	ctx, cancel := context.WithCancel(fault.WithHeartbeat(context.Background(), hb))
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, events, _ := hb.Load(); events > 0 {
				cancel()
				return
			}
			runtime.Gosched()
		}
	}()
	if _, err := p.run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel of %s: err = %v, want context.Canceled", p.name, err)
	}
}

// TestRecycledStateInvisible is the licence for recycling cache slabs between
// machines: a point's results must not depend on which points ran before it
// in the process, or beside it. Point A (partitioned, the schedule every
// unsanitized sweep runs) and a sampled point S (functional warm-up fills
// through insert as well) are first run with the pool bypassed; then two
// goroutines each sweep A, B, S, a cancelled B, A, S through the shared pool,
// where B differs in system, core, benchmark and schedule (sanitized, so
// sequential) and therefore dirties other sets. Every A and S must equal its
// pristine reference exactly. Nothing asserts that a Get hits: under the race
// detector sync.Pool drops items at random, which only mixes fresh and
// recycled slabs within one machine — a harder case, not an easier one.
func TestRecycledStateInvisible(t *testing.T) {
	a := newRecyclePoint(t, "SF", config.OOO8, "bfs", 0.02, sanitize.ModeOff)
	b := newRecyclePoint(t, "Base", config.IO4, "conv3d", 0.02, sanitize.ModeOn)
	s := newRecyclePoint(t, "SF", config.OOO8, "mv", 0.1, sanitize.ModeOff)
	s.cfg.Sample = config.SampleParams{Intervals: 8}

	must := func(p recyclePoint) any {
		res, err := p.run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		return res
	}
	restore := cache.SetPoolBypass(true)
	freshA, freshS := must(a), must(s)
	restore()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func(step string, p recyclePoint, want any) {
				got, err := p.run(context.Background())
				if err != nil {
					t.Errorf("sweep %d, %s: %v", g, step, err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("sweep %d, %s: recycled state reached the result:\n got: %+v\nwant: %+v", g, step, got, want)
				}
			}
			check("A", a, freshA)
			if _, err := b.run(context.Background()); err != nil {
				t.Errorf("sweep %d, B: %v", g, err)
			}
			check("S after B", s, freshS)
			b.cancelMidFlight(t)
			check("A after a cancelled B", a, freshA)
			check("S after A", s, freshS)
		}(g)
	}
	wg.Wait()
}

// TestPointAllocBudget holds the second point of a sweep to what it should
// cost once the first has left its slabs behind, in bytes and in objects. The
// 8x8 machine's arrays alone are 41 MB, so the byte budget only holds if they
// are recycled; the object budgets only hold if loads travel on pooled op
// records instead of closures (Base/IO4 bfs took 140k mallocs and Base/OOO8
// mv 177k when every iteration and every L2 miss allocated its own). Back to
// back on one goroutine, and best of three: two GC cycles between a Put and
// the next Get legitimately empty a sync.Pool.
func TestPointAllocBudget(t *testing.T) {
	for _, c := range []struct {
		sys        string
		core       config.CoreKind
		bench      string
		maxBytes   uint64
		maxObjects uint64
	}{
		{sys: "SF", core: config.OOO8, bench: "mv", maxBytes: 30 << 20},
		{sys: "Base", core: config.IO4, bench: "bfs", maxObjects: 20_000},
		{sys: "Base", core: config.OOO8, bench: "mv", maxObjects: 110_000},
	} {
		p := newRecyclePoint(t, c.sys, c.core, c.bench, 0.03, sanitize.ModeOff)
		point := func() {
			if _, err := p.run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		point()
		var bytes, objects uint64
		var before, after runtime.MemStats
		for attempt := 0; attempt < 3; attempt++ {
			runtime.ReadMemStats(&before)
			point()
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; attempt == 0 || d < bytes {
				bytes = d
			}
			if d := after.Mallocs - before.Mallocs; attempt == 0 || d < objects {
				objects = d
			}
		}
		t.Logf("second %s point allocates %.1f MB in %d objects", p.name, float64(bytes)/(1<<20), objects)
		if c.maxBytes != 0 && bytes >= c.maxBytes {
			t.Errorf("a recycled scale-0.03 %s point allocates %.1f MB, want < %d MB", p.name, float64(bytes)/(1<<20), c.maxBytes>>20)
		}
		if c.maxObjects != 0 && objects >= c.maxObjects {
			t.Errorf("a recycled scale-0.03 %s point allocates %d objects, want < %d", p.name, objects, c.maxObjects)
		}
	}
}
