package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/par"
	"streamfloat/internal/serve"
	"streamfloat/internal/stats"
	"streamfloat/internal/system"
)

// rung is one micro-benchmark of one layer, driven only through the layer's
// exported constructors and reported in the ns/op, B/op, allocs/op shape of
// `go test -benchmem`.
type rung struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// measure times fn, which performs ops operations.
func measure(name string, ops int, fn func()) rung {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	fn()
	took := time.Since(begin)
	runtime.ReadMemStats(&after)
	n := float64(ops)
	return rung{
		Name: name, Ops: ops,
		NsPerOp:     float64(took.Nanoseconds()) / n,
		BPerOp:      float64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
	}
}

// ladder runs the micro-rungs. A traced run takes the small store size only;
// the -ladder pass adds the 1e4 sizes. The seed picks the event plan and the
// key order.
func ladder(ctx context.Context, e env, full bool) ([]rung, error) {
	rng := rand.New(rand.NewSource(e.seed))
	rungs := []rung{eventRung(rng)}
	rungs = append(rungs, parRungs(e.p)...)
	sizes := []int{100}
	if full {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		rs, err := storeRungs(ctx, e, rng, n)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, rs...)
	}
	jr, err := journalRung(e)
	if err != nil {
		return nil, err
	}
	return append(rungs, jr), nil
}

// layerFromLadder maps rungs onto the per-layer metric names.
func layerFromLadder(rungs []rung, p int) map[string]float64 {
	by := map[string]float64{}
	for _, r := range rungs {
		by[r.Name] = r.NsPerOp
	}
	return map[string]float64{
		"event.ns_per_event":          by["event/schedule+fire"],
		"par.ns_per_quantum.w1":       by["par/quantum/w1"],
		"par.ns_per_quantum.wP":       by[fmt.Sprintf("par/quantum/w%d", p)],
		"par.defer_ns_per_op":         by["par/defer"],
		"serve.store_hit_mem_ns":      by["serve.Store/get-mem/100/seq"],
		"serve.store_hit_disk_us":     by["serve.Store/get-disk/100/seq"] / 1e3,
		"serve.store_put_us":          by["serve.Store/put/100/seq"] / 1e3,
		"serve.store_singleflight_us": by[fmt.Sprintf("serve.Store/singleflight/100/par%d", p)] / 1e3,
		"serve.journal_append_us":     by["serve.Journal/append"] / 1e3,
		"serve.encode_us_per_resp":    by["serve/encode-response"] / 1e3,
	}
}

// --- event -----------------------------------------------------------------------

const eventPlanLen = 1 << 20

// eventPlan is a seeded chain of delays: every fired event schedules the next
// one of the plan, so the queue holds a steady 1024 events.
type eventPlan struct {
	eng    *event.Engine
	delays []uint32
	next   int
}

func firePlan(_ event.Cycle, ref event.Ref) {
	p := ref.Obj.(*eventPlan)
	if p.next < len(p.delays) {
		d := p.delays[p.next]
		p.next++
		p.eng.ScheduleCall(event.Cycle(d), firePlan, ref)
	}
}

// eventRung schedules and fires a 1M-event plan: 90% of the delays are cache
// and NoC sized, 8% DRAM sized (both inside the engine's 4096-cycle ring) and
// 2% beyond it, on the overflow heap.
func eventRung(rng *rand.Rand) rung {
	plan := &eventPlan{eng: event.New(), delays: make([]uint32, eventPlanLen)}
	for i := range plan.delays {
		switch r := rng.Intn(100); {
		case r < 90:
			plan.delays[i] = 1 + uint32(rng.Intn(255))
		case r < 98:
			plan.delays[i] = 256 + uint32(rng.Intn(3840))
		default:
			plan.delays[i] = 4096 + uint32(rng.Intn(61440))
		}
	}
	ref := event.Ref{Obj: plan}
	return measure("event/schedule+fire", eventPlanLen, func() {
		for i := 0; i < 1024; i++ {
			firePlan(0, ref)
		}
		plan.eng.Run(0)
	})
}

// --- par ---------------------------------------------------------------------------

const (
	parShards  = 16
	parQuantum = 6 // the 8x8 mesh's lookahead: router + link latency
	parQuanta  = 50000
)

// ticker is one shard's load: a no-op event every quantum, optionally
// deferring one cross-tile op per firing.
type ticker struct {
	sh       *par.Shard
	left     int
	deferOps bool
}

func noopOp(event.Cycle, any) {}

func tick(now event.Cycle, ref event.Ref) {
	t := ref.Obj.(*ticker)
	if t.deferOps {
		t.sh.Defer(now, int(ref.A), noopOp, nil)
	}
	if t.left--; t.left > 0 {
		t.sh.Eng.ScheduleCall(parQuantum, tick, ref)
	}
}

// runQuanta drives parQuanta barrier-synchronized quanta over 16 shards.
func runQuanta(name string, workers int, deferOps bool) rung {
	g := &par.Group{Quantum: parQuantum, Workers: workers}
	for i := 0; i < parShards; i++ {
		sh := par.NewShard(event.New(), &stats.Stats{})
		g.Shards = append(g.Shards, sh)
		sh.Eng.ScheduleCall(0, tick, event.Ref{Obj: &ticker{sh: sh, left: parQuanta, deferOps: deferOps}, A: int64(i)})
	}
	return measure(name, parQuanta, func() {
		if _, err := g.Run(0, nil); err != nil {
			panic("benchmark: par rung: " + err.Error())
		}
	})
}

func parRungs(p int) []rung {
	w1 := runQuanta("par/quantum/w1", 1, false)
	rungs := []rung{w1}
	if p > 1 {
		rungs = append(rungs, runQuanta(fmt.Sprintf("par/quantum/w%d", p), p, false))
	}
	// The drain cost of one deferred op: a quantum carrying 16 of them
	// against a quantum carrying none.
	d := runQuanta("par/defer", 1, true)
	d.Ops *= parShards
	d.NsPerOp = (d.NsPerOp - w1.NsPerOp) / parShards
	d.BPerOp /= parShards
	d.AllocsPerOp /= parShards
	return append(rungs, d)
}

// --- serve.Store ---------------------------------------------------------------------

// split runs fn over n items, either in one goroutine or cut into p
// contiguous parts run side by side.
func split(n, p int, fn func(lo, hi int)) {
	if p <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < p; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c*n/p, (c+1)*n/p)
		}(c)
	}
	wg.Wait()
}

// storeRungs measures serve.Store at n entries with one precomputed Results:
// put (memory insert plus disk write), memory hit, disk hit, and concurrent
// callers sharing keys (singleflight), sequenced and P-parallel.
func storeRungs(ctx context.Context, e env, rng *rand.Rand, n int) ([]rung, error) {
	cfg, err := config.ForSystem("Base", config.OOO8)
	if err != nil {
		return nil, err
	}
	cfg.Sanitize = sanitizeOff
	res, err := system.RunBenchmark(ctx, cfg, hitBench, 0.02)
	if err != nil {
		return nil, err
	}
	sr := storeRunner{ctx: ctx, scratch: e.scratch, res: res, keys: make([]string, n), order: rng.Perm(n)}
	for i := range sr.keys {
		sr.keys[i] = fmt.Sprintf("%016x%016x%016x%016x", rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	rungs, err := sr.run("seq", 1)
	if err == nil && e.p > 1 {
		var more []rung
		more, err = sr.run(fmt.Sprintf("par%d", e.p), e.p)
		rungs = append(rungs, more...)
	}
	if err != nil {
		return nil, err
	}
	if n == 100 {
		resp := serve.JobResponse{Key: sr.keys[0], Cached: true, ElapsedMS: 0.1, Results: res}
		enc := json.NewEncoder(io.Discard)
		enc.SetEscapeHTML(false)
		rungs = append(rungs, measure("serve/encode-response", 2000, func() {
			for i := 0; i < 2000; i++ {
				if err := enc.Encode(resp); err != nil {
					sr.fail(err)
				}
			}
		}))
	}
	return rungs, sr.err
}

// storeRunner holds what the serve.Store rungs of one size share.
type storeRunner struct {
	ctx     context.Context
	scratch string
	res     system.Results
	keys    []string
	order   []int // seeded read order

	once sync.Once
	err  error // first failure inside a measured loop
}

func (sr *storeRunner) fail(err error) { sr.once.Do(func() { sr.err = err }) }

func (sr *storeRunner) compute() (system.Results, error) { return sr.res, nil }

// run measures one mode: every loop runs over the keys cut into p parts.
func (sr *storeRunner) run(mode string, p int) ([]rung, error) {
	n := len(sr.keys)
	dir, err := os.MkdirTemp(sr.scratch, "ladder-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	name := func(op string) string { return fmt.Sprintf("serve.Store/%s/%d/%s", op, n, mode) }

	store, err := serve.NewStore(n, dir)
	if err != nil {
		return nil, err
	}
	rungs := []rung{measure(name("put"), n, func() {
		split(n, p, func(lo, hi int) {
			for _, k := range sr.keys[lo:hi] {
				if _, err := store.Do(sr.ctx, k, sr.compute); err != nil {
					sr.fail(err)
				}
			}
		})
	})}

	rounds := 1 + 20000/n
	rungs = append(rungs, measure(name("get-mem"), rounds*n, func() {
		split(n, p, func(lo, hi int) {
			for r := 0; r < rounds; r++ {
				for _, i := range sr.order[lo:hi] {
					if _, ok := store.Get(sr.keys[i]); !ok {
						sr.fail(fmt.Errorf("serve.Store: populated key missing from memory"))
					}
				}
			}
		})
	}))

	// A one-entry LRU over the populated directory: consecutive distinct
	// keys always miss memory, so every Get is a disk read.
	cold, err := serve.NewStore(1, dir)
	if err != nil {
		return nil, err
	}
	rounds = 1 + 500/n
	rungs = append(rungs, measure(name("get-disk"), rounds*n, func() {
		split(n, p, func(lo, hi int) {
			for r := 0; r < rounds; r++ {
				for _, k := range sr.keys[lo:hi] {
					if _, ok := cold.Get(k); !ok {
						sr.fail(fmt.Errorf("serve.Store: populated key missing from disk"))
					}
				}
			}
		})
	}))

	if p > 1 {
		// Every caller asks for every key in the same order on an empty
		// memory-only store, so callers meet on in-flight keys.
		shared, err := serve.NewStore(n, "")
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, measure(name("singleflight"), n, func() {
			split(p, p, func(int, int) {
				for _, k := range sr.keys {
					if _, err := shared.Do(sr.ctx, k, sr.compute); err != nil {
						sr.fail(err)
					}
				}
			})
		}))
	}
	return rungs, nil
}

// --- serve.Journal -------------------------------------------------------------------

// journalRung appends point records to one job's journal, fsync included.
func journalRung(e env) (rung, error) {
	dir, err := os.MkdirTemp(e.scratch, "ladder-journal-")
	if err != nil {
		return rung{}, err
	}
	defer os.RemoveAll(dir)
	j, err := serve.OpenJournal(dir)
	if err != nil {
		return rung{}, err
	}
	const id = "ladder"
	if err := j.JobCreated(id, serve.JobSpec{Figure: &serve.FigureSpec{ID: "13"}}); err != nil {
		return rung{}, err
	}
	const appends = 100
	var appendErr error
	r := measure("serve.Journal/append", appends, func() {
		for i := 0; i < appends; i++ {
			if err := j.PointDone(id, fmt.Sprintf("%064x", i), false); err != nil {
				appendErr = err
			}
		}
	})
	return r, appendErr
}

// printLadder writes the rungs as a benchmark-style table.
func printLadder(w io.Writer, h hostInfo, rungs []rung) {
	fmt.Fprintf(w, "cpu: %s\nnproc: %d  GOMAXPROCS: %d  P: %d  %s  seed: %d\n", h.CPUModel, h.NProc, h.GOMAXPROCS, h.P, h.GoVersion, h.Seed)
	for _, r := range rungs {
		fmt.Fprintf(w, "%-44s %9d %14.1f ns/op %12.1f B/op %10.2f allocs/op\n", r.Name, r.Ops, r.NsPerOp, r.BPerOp, r.AllocsPerOp)
	}
}
