package par

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"streamfloat/internal/event"
	"streamfloat/internal/fault"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
)

func TestShardsFor(t *testing.T) {
	cases := []struct{ tiles, want int }{
		{1, 1}, {4, 1}, {15, 1}, // small meshes are one shard
		{16, 16}, {32, 16}, {64, 16}, {256, 16},
	}
	for _, c := range cases {
		if got := ShardsFor(c.tiles); got != c.want {
			t.Errorf("ShardsFor(%d) = %d, want %d", c.tiles, got, c.want)
		}
	}
}

func TestShardOfCoversAllShards(t *testing.T) {
	const tiles, shards = 64, 16
	count := make([]int, shards)
	for tile := 0; tile < tiles; tile++ {
		s := ShardOf(tile, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", tile, shards, s)
		}
		count[s]++
	}
	for s, n := range count {
		if n != tiles/shards {
			t.Errorf("shard %d owns %d tiles, want %d (unbalanced partition)", s, n, tiles/shards)
		}
	}
}

// TestNewLayout: every tile lands on the ShardOf shard, each shard gets an
// engine and counters of its own, and Defer logs at the issuing tile's
// current cycle.
func TestNewLayout(t *testing.T) {
	const tiles, shards = 8, 3
	l := NewLayout(tiles, shards)
	if len(l.Shards) != shards {
		t.Fatalf("built %d shards, want %d", len(l.Shards), shards)
	}
	for i, a := range l.Shards {
		for _, b := range l.Shards[:i] {
			if a.Eng == b.Eng || a.St == b.St {
				t.Fatalf("shard %d shares an engine or counters with another shard", i)
			}
		}
	}
	for tile := 0; tile < tiles; tile++ {
		sh := l.Shards[ShardOf(tile, shards)]
		if l.Index(tile) != ShardOf(tile, shards) || l.Shard(tile) != sh || l.Eng(tile) != sh.Eng || l.St(tile) != sh.St {
			t.Errorf("tile %d is not served by shard %d", tile, ShardOf(tile, shards))
		}
	}
	l.Eng(4).AdvanceTo(9)
	l.Defer(4, func(event.Cycle, any) {}, nil)
	if ops := l.Shard(4).ops; len(ops) != 1 || ops[0].When != 9 || ops[0].Tile != 4 {
		t.Errorf("Defer logged %+v, want one op at cycle 9 from tile 4", ops)
	}
}

// TestDrainCanonicalOrder: barrier ops must run sorted by (When, Tile), with
// each tile's issue order preserved — the total order that makes results
// independent of the shard layout and thread schedule.
func TestDrainCanonicalOrder(t *testing.T) {
	a := NewShard(event.New(), &stats.Stats{})
	b := NewShard(event.New(), &stats.Stats{})
	testDrainCanonicalOrder(t, &Group{Shards: []*Shard{a, b}, Quantum: 6}, a, b)
	// One shard holding every tile sorts its own log in place: same order.
	one := NewShard(event.New(), &stats.Stats{})
	testDrainCanonicalOrder(t, &Group{Shards: []*Shard{one}, Quantum: 6}, one, one)
}

func testDrainCanonicalOrder(t *testing.T, g *Group, a, b *Shard) {

	type fired struct {
		when event.Cycle
		tile int
		seq  int
	}
	var got []fired
	rec := func(tile, seq int) func(event.Cycle, any) {
		return func(now event.Cycle, _ any) { got = append(got, fired{now, tile, seq}) }
	}
	// Logged deliberately out of (When, Tile) order, with two same-(When,
	// Tile) ops from tile 3 to check issue-order preservation.
	b.Defer(12, 3, rec(3, 0), nil)
	b.Defer(10, 3, rec(3, 1), nil)
	a.Defer(10, 0, rec(0, 2), nil)
	b.Defer(10, 3, rec(3, 3), nil)
	a.Defer(11, 2, rec(2, 4), nil)
	g.drain()

	want := []fired{
		{10, 0, 2}, // earliest cycle, lowest tile
		{10, 3, 1}, // tile 3's first same-cycle op, in issue order
		{10, 3, 3},
		{11, 2, 4},
		{12, 3, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drain order = %v, want %v", got, want)
	}
	if len(a.ops) != 0 || len(b.ops) != 0 {
		t.Error("drain left ops behind")
	}
}

// TestDrainWaves: an op deferred from barrier context (an op deferring
// another op) runs in a later wave of the same barrier.
func TestDrainWaves(t *testing.T) {
	a := NewShard(event.New(), &stats.Stats{})
	g := &Group{Shards: []*Shard{a}, Quantum: 6}
	var order []string
	a.Defer(5, 0, func(event.Cycle, any) {
		order = append(order, "first")
		a.Defer(5, 0, func(event.Cycle, any) { order = append(order, "second") }, nil)
	}, nil)
	g.drain()
	if !reflect.DeepEqual(order, []string{"first", "second"}) {
		t.Errorf("waves ran %v", order)
	}
}

// schedRecorder schedules an event on the shard's engine that records its
// fire cycle.
func schedRecorder(sh *Shard, at event.Cycle, log *[]event.Cycle) {
	sh.Eng.At(at, func(now event.Cycle) { *log = append(*log, now) })
}

// TestGroupRunWindows: Run drives all shards through quanta until drained,
// firing every event and normalizing engines to each window end.
func TestGroupRunWindows(t *testing.T) {
	for _, workers := range []int{1, 2} {
		a := NewShard(event.New(), &stats.Stats{})
		b := NewShard(event.New(), &stats.Stats{})
		g := &Group{Shards: []*Shard{a, b}, Quantum: 6, Workers: workers}
		var la, lb []event.Cycle
		schedRecorder(a, 0, &la)
		schedRecorder(a, 10, &la)
		schedRecorder(a, 100, &la)
		schedRecorder(b, 3, &lb)
		schedRecorder(b, 11, &lb)
		stopped, err := g.Run(0, nil)
		if err != nil {
			t.Fatalf("workers=%d: run failed: %v", workers, err)
		}
		if stopped {
			t.Fatalf("workers=%d: run reported stopped", workers)
		}
		if !reflect.DeepEqual(la, []event.Cycle{0, 10, 100}) || !reflect.DeepEqual(lb, []event.Cycle{3, 11}) {
			t.Errorf("workers=%d: fired a=%v b=%v", workers, la, lb)
		}
		if a.Eng.Pending() != 0 || b.Eng.Pending() != 0 {
			t.Errorf("workers=%d: events left pending", workers)
		}
		// Engines are normalized together: after the last window both stand
		// at the same horizon.
		if a.Eng.Now() != b.Eng.Now() {
			t.Errorf("workers=%d: engines desynchronized: %d vs %d", workers, a.Eng.Now(), b.Eng.Now())
		}
	}
}

// TestGroupRunBarrierOpsBetweenWindows: ops logged during a window run at
// that window's barrier, observing the normalized horizon time.
func TestGroupRunBarrierOpsBetweenWindows(t *testing.T) {
	a := NewShard(event.New(), &stats.Stats{})
	b := NewShard(event.New(), &stats.Stats{})
	g := &Group{Shards: []*Shard{a, b}, Quantum: 6}
	var barrierNow, issueNow event.Cycle
	a.Eng.At(2, func(now event.Cycle) {
		a.Defer(now, 0, func(when event.Cycle, _ any) {
			issueNow = when
			barrierNow = a.Eng.Now()
			// Barrier context may touch ANY shard: schedule the next event
			// on the other shard's engine.
			b.Eng.At(b.Eng.Now()+1, func(event.Cycle) {})
		}, nil)
	})
	g.Run(0, nil)
	if issueNow != 2 {
		t.Errorf("op saw issue cycle %d, want 2", issueNow)
	}
	// The window started at 2 (earliest event), so the barrier normalizes
	// engines to 2+Quantum.
	if barrierNow != 8 {
		t.Errorf("op ran with engine at %d, want the window horizon 8", barrierNow)
	}
}

// TestGroupRunMaxCycles: a horizon break advances every engine to maxCycles
// and leaves later events pending, mirroring the sequential engine.
func TestGroupRunMaxCycles(t *testing.T) {
	a := NewShard(event.New(), &stats.Stats{})
	b := NewShard(event.New(), &stats.Stats{})
	g := &Group{Shards: []*Shard{a, b}, Quantum: 6}
	var fired []event.Cycle
	schedRecorder(a, 5, &fired)
	schedRecorder(b, 1000, &fired)
	stopped, err := g.Run(50, nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if stopped {
		t.Fatal("horizon break is not a stop")
	}
	if !reflect.DeepEqual(fired, []event.Cycle{5}) {
		t.Errorf("fired %v, want only the pre-horizon event", fired)
	}
	if b.Eng.Pending() != 1 {
		t.Error("post-horizon event vanished")
	}
	if a.Eng.Now() != 50 || b.Eng.Now() != 50 {
		t.Errorf("engines at %d/%d, want both clamped to 50", a.Eng.Now(), b.Eng.Now())
	}
}

// TestGroupRunStop: the stop callback is polled between quanta and aborts
// the run.
func TestGroupRunStop(t *testing.T) {
	a := NewShard(event.New(), &stats.Stats{})
	g := &Group{Shards: []*Shard{a}, Quantum: 6}
	fires := 0
	a.Eng.At(1, func(now event.Cycle) {
		fires++
		a.Eng.At(now+10, func(event.Cycle) { fires++ })
	})
	calls := 0
	stop := func() bool { calls++; return calls > 1 } // allow one quantum
	stopped, err := g.Run(0, stop)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !stopped {
		t.Fatal("stop not honored")
	}
	if fires != 1 {
		t.Errorf("fired %d events before stop, want 1", fires)
	}
}

// TestGroupRunHelperPanic: a panic on a helper worker's shard must not kill
// the process or deadlock the barrier — it surfaces as a structured error
// from Run, with every helper goroutine shut down cleanly (a second Run on a
// fresh group still works, and the race detector sees the joins).
func TestGroupRunHelperPanic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("helper workers need GOMAXPROCS >= 2")
	}
	shards := make([]*Shard, 4)
	for i := range shards {
		shards[i] = NewShard(event.New(), &stats.Stats{})
	}
	g := &Group{Shards: shards, Quantum: 6, Workers: 4}
	// Keep every shard busy so all workers participate in the window; the
	// panic fires on shard 1, which the round-robin partition hands to a
	// helper (never the leader) for every worker count >= 2.
	for i, sh := range shards {
		i := i
		sh.Eng.At(1, func(event.Cycle) {
			if i == 1 {
				panic("injected shard fault")
			}
		})
	}
	stopped, err := g.Run(0, nil)
	if stopped {
		t.Fatal("panic reported as a stop")
	}
	if err == nil {
		t.Fatal("helper panic did not surface as an error")
	}
	pe, ok := fault.As(err)
	if !ok {
		t.Fatalf("error %v does not unwrap to a *fault.PointError", err)
	}
	if pe.Kind != fault.KindPanic {
		t.Errorf("kind = %s, want panic", pe.Kind)
	}
	if !strings.Contains(pe.Msg, "injected shard fault") {
		t.Errorf("msg = %q, want the panic value", pe.Msg)
	}
	if pe.Stack == "" {
		t.Error("no stack captured")
	}

	// The group is single-use after a failure, but the barrier protocol must
	// have fully unwound: a fresh group over fresh shards runs fine.
	shards2 := make([]*Shard, 4)
	for i := range shards2 {
		shards2[i] = NewShard(event.New(), &stats.Stats{})
	}
	g2 := &Group{Shards: shards2, Quantum: 6, Workers: 4}
	var fired []event.Cycle
	schedRecorder(shards2[1], 3, &fired)
	if _, err := g2.Run(0, nil); err != nil {
		t.Fatalf("clean run after failed run: %v", err)
	}
	if len(fired) != 1 {
		t.Errorf("clean run fired %d events, want 1", len(fired))
	}
}

// TestGroupRunViolationPanic: a sanitize.Violation panic on a helper keeps
// its classification through the barrier.
func TestGroupRunViolationPanic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("helper workers need GOMAXPROCS >= 2")
	}
	shards := make([]*Shard, 2)
	for i := range shards {
		shards[i] = NewShard(event.New(), &stats.Stats{})
	}
	g := &Group{Shards: shards, Quantum: 6, Workers: 2}
	for i, sh := range shards {
		i := i
		sh.Eng.At(1, func(event.Cycle) {
			if i == 1 {
				panic(&sanitize.Violation{Msg: "directory state mismatch"})
			}
		})
	}
	_, err := g.Run(0, nil)
	pe, ok := fault.As(err)
	if !ok {
		t.Fatalf("error %v is not a PointError", err)
	}
	if pe.Kind != fault.KindViolation {
		t.Errorf("kind = %s, want violation", pe.Kind)
	}
	if !pe.Deterministic() {
		t.Error("violation not classified deterministic")
	}
}

// TestEffectiveWorkers: the one clamp the builder (shard layout) and Group.Run
// (goroutines) share: floor 1, cap min(shards, GOMAXPROCS).
func TestEffectiveWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cases := []struct{ requested, shards, want int }{
		{0, 16, 1}, {-3, 16, 1}, // floor
		{1, 16, 1}, {2, 16, 2}, {4, 16, 4},
		{8, 16, 4}, {99, 16, 4}, // Workers > GOMAXPROCS
		{4, 2, 2}, {4, 1, 1}, // never more workers than shards
	}
	for _, c := range cases {
		if got := EffectiveWorkers(c.requested, c.shards); got != c.want {
			t.Errorf("EffectiveWorkers(%d, %d) = %d at GOMAXPROCS 4, want %d", c.requested, c.shards, got, c.want)
		}
	}
	runtime.GOMAXPROCS(32)
	if got := EffectiveWorkers(99, ShardsFor(64)); got != 16 {
		t.Errorf("EffectiveWorkers(99, 16) = %d at GOMAXPROCS 32, want the shard bound 16", got)
	}
}

// TestSortOpsMatchesSliceStable: the sorted-already pass plus
// slices.SortStableFunc orders every log exactly as the sort.SliceStable
// comparator it replaced, on shuffled logs, engine-ordered logs (When
// ascending, the common case) and logs dense in equal keys.
func TestSortOpsMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(64)
		ops := make([]Op, n)
		var when event.Cycle
		for i := range ops {
			switch trial % 3 {
			case 0:
				when = event.Cycle(rng.Intn(8))
			case 1:
				when += event.Cycle(rng.Intn(2))
			}
			// Arg carries the issue index, so a stability slip shows.
			ops[i] = Op{When: when, Tile: rng.Intn(4), Arg: i}
		}
		want := slices.Clone(ops)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := &want[i], &want[j]
			if a.When != b.When {
				return a.When < b.When
			}
			return a.Tile < b.Tile
		})
		sortOps(ops)
		if !reflect.DeepEqual(ops, want) {
			t.Fatalf("trial %d: sortOps = %v, want %v", trial, ops, want)
		}
	}
}
