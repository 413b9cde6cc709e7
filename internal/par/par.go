// Package par partitions the simulated machine into tile shards, each driven
// by its own event.Engine, and runs them in barrier-synchronized quanta of
// one conservative lookahead. It is the parallel execution substrate behind
// system.Machine: tiles (core + private caches + L3 bank + stream engines,
// with DRAM controllers pinned to their corner tile's shard) are partitioned
// round-robin into one shard per effective worker, and cross-tile
// interaction is funneled through per-shard op logs that the quantum barrier
// drains in one canonical order.
//
// # One schedule
//
// Every machine runs this schedule, whatever its size and whether or not the
// sanitizer or the tracer is attached: there is no synchronous twin in which a
// deferred effect applies at once. A machine is built with exactly as many
// shards as it will have workers, EffectiveWorkers(requested,
// ShardsFor(tiles)). At the default of one worker (and always below 16 tiles)
// that is one shard on one engine: the same windows and the same
// barrier-drained op log, without a second calendar to allocate or poll. How
// tiles are placed onto host execution units is a host decision and must not
// reach the result. Component unit tests build the same thing at one shard
// (partest.Rig).
//
// The sanitizer follows the schedule instead of demanding its own: a
// directory bit whose eviction update still sits in an op log counts as a
// copy in flight (cache.privateOrPending), exactly like an MSHR-pending fill.
// A sanitized machine, like a traced one, keeps the layout it was built with
// and is driven by one goroutine, because the checker's books and the
// tracer's ring are shared across tiles.
//
// # Determinism
//
// Within a quantum, shards touch disjoint state (each tile's components live
// on exactly one shard and never mutate another tile's state directly), and
// every effect one tile has on another is logged, not executed. At the
// barrier the logged ops run sorted by (cycle, source tile) with per-tile log
// order as the tiebreak: a total order that names no shard, so it is the
// same for every shard layout and every thread schedule. Results are
// therefore bit-identical for any worker count; system's
// TestShardLayoutInvariance holds the claim to 1, 2, 4 and 16 shards.
//
// # Lookahead
//
// Every cross-tile interaction rides a NoC message costing at least
// router+link cycles per hop, so a quantum of exactly that width can run all
// shards independently: any message sent during the window [W, W+Q) arrives
// at or after W+Q, i.e. in a later window, regardless of execution order.
package par

import (
	"cmp"
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"streamfloat/internal/event"
	"streamfloat/internal/fault"
	"streamfloat/internal/stats"
)

// shardThreshold is the minimum tile count at which a machine may be split
// across workers. A smaller machine (a unit-test mesh) is one shard, still
// barrier-drained.
const shardThreshold = 16

// maxShards bounds the partition: more shards than this only add per-quantum
// polling overhead without exposing more parallelism per worker.
const maxShards = 16

// ShardsFor returns the most shards a machine with the given number of tiles
// may be split into: 1 below shardThreshold tiles, else min(tiles, maxShards).
func ShardsFor(tiles int) int {
	if tiles < shardThreshold {
		return 1
	}
	if tiles < maxShards {
		return tiles
	}
	return maxShards
}

// EffectiveWorkers resolves a requested worker count against a shard bound:
// at least 1, at most min(shards, GOMAXPROCS). The builder calls it with
// ShardsFor(tiles) to pick the layout, Group.Run with the shards it was given
// to pick the goroutines, so a machine has one shard per worker.
func EffectiveWorkers(requested, shards int) int {
	return max(1, min(requested, shards, runtime.GOMAXPROCS(0)))
}

// ShardOf maps a tile to its shard under the round-robin partition. The
// interleaved assignment spreads mesh neighborhoods (and the hot corner
// tiles hosting DRAM controllers) across shards for load balance; any
// fixed assignment is legal because cross-tile interaction is barrier-
// mediated, not locality-dependent.
func ShardOf(tile, shards int) int { return tile % shards }

// Op is one deferred cross-tile effect: a mesh send awaiting link
// reservation, a coherence action on another tile's state, or any other
// handler that must not run inside a shard's window. Ops execute single-
// threaded at the quantum barrier, in canonical (When, Tile, issue) order.
// Call receives the cycle the op was issued at; Arg carries its payload
// (pointer-shaped values only, to avoid boxing).
type Op struct {
	When event.Cycle
	Tile int
	Call func(now event.Cycle, arg any)
	Arg  any
}

// Shard is one partition of the machine: a set of tiles driven by a private
// engine, accumulating into private stats, with an op log for cross-tile
// effects. A machine built as one shard logs and drains at the barrier like
// any other.
type Shard struct {
	Eng *event.Engine
	St  *stats.Stats

	ops []Op

	// pad keeps concurrently hot shards off each other's cache lines.
	_ [8]uint64
}

// NewShard returns a shard driven by eng, accumulating into st.
func NewShard(eng *event.Engine, st *stats.Stats) *Shard {
	return &Shard{Eng: eng, St: st}
}

// Defer queues a cross-tile effect issued by tile at cycle when, to run at
// the next quantum barrier. Ops deferred from barrier context (an op
// deferring another op) are drained in the same barrier, in a later wave.
func (s *Shard) Defer(when event.Cycle, tile int, call func(event.Cycle, any), arg any) {
	s.ops = append(s.ops, Op{When: when, Tile: tile, Call: call, Arg: arg})
}

// Layout is a machine's tile partition: its shards, and which of them drives
// each tile. Every component is constructed over the machine's layout and
// reaches a tile's engine, counters and op log only through it.
type Layout struct {
	Shards []*Shard

	tile []*Shard // tile -> the shard driving it
	idx  []int    // tile -> that shard's index in Shards
}

// NewLayout partitions tiles round-robin (ShardOf) over the given number of
// fresh shards, each with its own engine and counters.
func NewLayout(tiles, shards int) *Layout {
	l := &Layout{
		Shards: make([]*Shard, shards),
		tile:   make([]*Shard, tiles),
		idx:    make([]int, tiles),
	}
	for i := range l.Shards {
		l.Shards[i] = NewShard(event.New(), &stats.Stats{})
	}
	for t := range l.tile {
		l.idx[t] = ShardOf(t, shards)
		l.tile[t] = l.Shards[l.idx[t]]
	}
	return l
}

// Shard returns the shard driving tile.
func (l *Layout) Shard(tile int) *Shard { return l.tile[tile] }

// Index returns the index in Shards of the shard driving tile: the name of
// the execution context tile's events run in, for per-context pools.
func (l *Layout) Index(tile int) int { return l.idx[tile] }

// Eng returns the engine driving tile's events.
func (l *Layout) Eng(tile int) *event.Engine { return l.tile[tile].Eng }

// St returns the counters tile accumulates into.
func (l *Layout) St(tile int) *stats.Stats { return l.tile[tile].St }

// Defer queues a cross-tile effect issued by tile at its engine's current
// cycle (see Shard.Defer). tile must belong to the shard now executing, or
// the call must come from barrier context, where any log is safe to append
// to.
func (l *Layout) Defer(tile int, call func(event.Cycle, any), arg any) {
	sh := l.tile[tile]
	sh.Defer(sh.Eng.Now(), tile, call, arg)
}

// Group drives a set of shards through barrier-synchronized quanta.
type Group struct {
	Shards  []*Shard
	Quantum event.Cycle // conservative lookahead = quantum width

	// Workers is the number of goroutines driving the shards (resolved by
	// EffectiveWorkers against len(Shards)). It is an execution knob: results
	// are identical for every value.
	Workers int

	// Labels, when non-empty, annotate the per-shard worker goroutines for
	// pprof attribution (key-value pairs, e.g. "benchmark", "config").
	Labels []string

	batch []Op // reused barrier sort buffer

	// Barrier state (sense by cumulative epoch counts).
	epoch   atomic.Uint64
	horizon atomic.Uint64
	done    atomic.Uint64

	// Worker-panic containment: a helper panic is recorded here instead of
	// unwinding its goroutine (which would kill the process and leave the
	// leader spinning on done forever). The leader observes failed after
	// each quantum's barrier and surfaces failErr from Run.
	failed  atomic.Bool
	failMu  sync.Mutex
	failErr error
}

// fail records the first worker panic (converted to a structured error).
func (g *Group) fail(v any) {
	pe := fault.FromPanic("", v)
	g.failMu.Lock()
	if g.failErr == nil {
		g.failErr = pe
	}
	g.failMu.Unlock()
	g.failed.Store(true)
}

// takeFailure returns the recorded worker failure, if any.
func (g *Group) takeFailure() error {
	g.failMu.Lock()
	defer g.failMu.Unlock()
	return g.failErr
}

// next returns the earliest pending cycle across all shards.
func (g *Group) next() (event.Cycle, bool) {
	var min event.Cycle
	ok := false
	for _, s := range g.Shards {
		if t, has := s.Eng.NextWhen(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// cmpOps is the canonical barrier order: (When, Tile).
func cmpOps(a, b Op) int {
	if c := cmp.Compare(a.When, b.When); c != 0 {
		return c
	}
	return cmp.Compare(a.Tile, b.Tile)
}

// sortOps puts one wave into canonical order, keeping each tile's issue
// order. An engine fires in time order, so most waves arrive sorted already.
func sortOps(ops []Op) {
	if !slices.IsSortedFunc(ops, cmpOps) {
		slices.SortStableFunc(ops, cmpOps)
	}
}

// drain executes all logged ops in canonical order: sorted by (When, Tile),
// with each tile's issue order preserved (a tile's ops live in exactly one
// shard's log, appended in execution order, and the sort is stable over the
// fixed shard concatenation). Ops may defer further ops; those run in a
// subsequent wave of the same barrier.
func (g *Group) drain() {
	for {
		wave := g.batch[:0]
		if len(g.Shards) == 1 {
			// One log needs no merge: run it where it is and let the shard
			// log its next wave into the spare buffer.
			s := g.Shards[0]
			wave, s.ops = s.ops, wave
		} else {
			for _, s := range g.Shards {
				wave = append(wave, s.ops...)
				s.ops = s.ops[:0]
			}
		}
		g.batch = wave[:0]
		if len(wave) == 0 {
			return
		}
		sortOps(wave)
		for i := range wave {
			op := &wave[i]
			op.Call(op.When, op.Arg)
			*op = Op{} // release payload references
		}
	}
}

// spin waits until load() reports at least want, yielding the processor
// after a burst of failed probes. Quanta are a handful of cycles of
// simulated work (microseconds of wall clock), so a mostly-spinning wait
// beats channel wakeups by an order of magnitude here.
func spin(load func() uint64, want uint64) {
	for i := 0; ; i++ {
		if load() >= want {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// runShards runs one window over the shards owned by worker id.
func (g *Group) runShards(id, workers int, horizon event.Cycle) {
	for i := id; i < len(g.Shards); i += workers {
		g.Shards[i].Eng.RunWindow(horizon)
	}
}

// runShardsGuarded is runShards with panic containment for helper workers:
// a panic inside a shard's window (simulator bug, sanitizer violation) is
// recorded as the group failure instead of unwinding the helper goroutine.
// The helper then still participates in the barrier protocol — done must be
// incremented exactly once per window per helper or the leader's spin never
// completes — and exits cleanly at the next epoch via the shutdown sentinel
// the leader stores once it observes the failure.
func (g *Group) runShardsGuarded(id, workers int, horizon event.Cycle) {
	defer func() {
		if v := recover(); v != nil {
			g.fail(v)
		}
	}()
	g.runShards(id, workers, horizon)
}

// Run executes quanta until every engine drains, the next event would cross
// maxCycles (0 = no horizon), or stop (polled once per quantum; nil = never)
// reports true. It returns whether the run was stopped early, and a non-nil
// error when a shard worker panicked mid-window: the panic is converted to
// a *fault.PointError (reachable via errors.As), the remaining helpers shut
// down cleanly at the barrier, and the machine's state is abandoned
// mid-quantum (the engines are not advanced or drained further). On a
// horizon break every engine is advanced to maxCycles, as event.Engine.Run
// does.
func (g *Group) Run(maxCycles event.Cycle, stop func() bool) (stopped bool, err error) {
	if g.Quantum == 0 {
		g.Quantum = 1
	}
	workers := EffectiveWorkers(g.Workers, len(g.Shards))
	var wg sync.WaitGroup
	if workers > 1 {
		start := g.epoch.Load()
		for id := 1; id < workers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				kv := append([]string{"shard-worker", strconv.Itoa(id)}, g.Labels...)
				pprof.Do(context.Background(), pprof.Labels(kv...), func(context.Context) {
					e := start
					for {
						spin(g.epoch.Load, e+1)
						e++
						h := event.Cycle(g.horizon.Load())
						if h == 0 { // shutdown sentinel
							return
						}
						g.runShardsGuarded(id, workers, h)
						g.done.Add(1)
					}
				})
			}(id)
		}
		defer func() {
			g.horizon.Store(0)
			g.epoch.Add(1)
			wg.Wait()
		}()
	}

	// Ops logged before the run (from outside any window, every engine
	// quiescent) apply first, so Run always returns with every log empty.
	g.drain()
	helperDone := g.done.Load()
	for {
		if stop != nil && stop() {
			return true, nil
		}
		w, ok := g.next()
		if !ok {
			return false, nil
		}
		if maxCycles != 0 && w > maxCycles {
			for _, s := range g.Shards {
				s.Eng.AdvanceTo(maxCycles)
			}
			return false, nil
		}
		horizon := w + g.Quantum
		if workers > 1 {
			g.horizon.Store(uint64(horizon))
			g.epoch.Add(1)
			// The leader's own window is unguarded on purpose: a leader panic
			// unwinds through the deferred shutdown sentinel (helpers finish
			// their window, see horizon 0, exit; wg.Wait returns) and is
			// contained one level up, at the sweep's point-worker boundary.
			g.runShards(0, workers, horizon)
			helperDone += uint64(workers - 1)
			spin(g.done.Load, helperDone)
			if g.failed.Load() {
				// A helper panicked mid-window: its shard's state is torn, so
				// skip the advance/drain and surface the failure at the
				// barrier instead of simulating on corrupted state.
				return false, g.takeFailure()
			}
		} else {
			g.runShards(0, 1, horizon)
		}
		// Normalize every engine to the window end before the barrier ops
		// run: op handlers then observe one uniform Now() and everything
		// they schedule lands at or beyond the window end, independent of
		// which tile last fired on each engine.
		for _, s := range g.Shards {
			s.Eng.AdvanceTo(horizon)
		}
		g.drain()
	}
}
