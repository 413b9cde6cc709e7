package noc

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"streamfloat/internal/event"
	"streamfloat/internal/par/partest"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/trace"
)

// newTestMesh builds a mesh (router latency 5, link latency 1) on the shared
// one-shard rig: r.Run drains it through the quantum barrier, r.St holds the
// counters.
func newTestMesh(w, h, linkBits int) (*partest.Rig, *Mesh) {
	r := partest.New(w*h, 5+1)
	return r, New(r.Layout, w, h, linkBits, 5, 1)
}

func TestCoordRoundTrip(t *testing.T) {
	_, m := newTestMesh(8, 8, 256)
	for tile := 0; tile < m.Tiles(); tile++ {
		x, y := m.Coord(tile)
		if m.TileAt(x, y) != tile {
			t.Fatalf("tile %d -> (%d,%d) -> %d", tile, x, y, m.TileAt(x, y))
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	_, m := newTestMesh(8, 8, 256)
	if got := m.Hops(0, 63); got != 14 {
		t.Errorf("corner-to-corner hops = %d, want 14", got)
	}
	if got := m.Hops(5, 5); got != 0 {
		t.Errorf("self hops = %d, want 0", got)
	}
}

func TestFlitsByLinkWidth(t *testing.T) {
	cases := []struct {
		linkBits, payload, want int
	}{
		{256, 0, 1},  // header only
		{256, 64, 3}, // 72B = 576 bits -> 3 flits
		{128, 64, 5}, // 576/128 -> 5
		{512, 64, 2}, // 576/512 -> 2
		{256, 8, 1},  // subline: 16B total -> 1 flit
		{128, 57, 5}, // stream config: 65B = 520 bits -> 5 at 128
		{256, 57, 3},
		{256, 256, 9}, // bulk prefetch of 32 lines: 264B -> 9, past the table
		{128, 200, 13},
	}
	for _, c := range cases {
		_, m := newTestMesh(4, 4, c.linkBits)
		if got := m.Flits(c.payload); got != c.want {
			t.Errorf("Flits(%d) at %d-bit = %d, want %d", c.payload, c.linkBits, got, c.want)
		}
	}
	// The table agrees with the formula on both sides of its bound.
	for _, linkBits := range []int{64, 128, 256, 512} {
		_, m := newTestMesh(2, 2, linkBits)
		for p := 0; p < 2*flitTablePayloads; p++ {
			if got, want := m.Flits(p), max(((HeaderBytes+p)*8+linkBits-1)/linkBits, 1); got != want {
				t.Fatalf("Flits(%d) at %d-bit = %d, want %d", p, linkBits, got, want)
			}
		}
	}
}

func TestSendDelivers(t *testing.T) {
	r, m := newTestMesh(4, 4, 256)
	delivered := false
	m.Send(0, 15, stats.ClassData, 64, func(now event.Cycle) {
		delivered = true
		// 6 hops x (5+1) cycles + 2 tail flits minimum.
		if now < 36 {
			t.Errorf("delivered too early: %d", now)
		}
	})
	r.Run()
	if !delivered {
		t.Fatal("message not delivered")
	}
	if r.St.Flits[stats.ClassData] != 3 {
		t.Errorf("flits = %d, want 3", r.St.Flits[stats.ClassData])
	}
	if r.St.FlitHops[stats.ClassData] != 3*6 {
		t.Errorf("flit-hops = %d, want 18", r.St.FlitHops[stats.ClassData])
	}
}

func TestLocalDeliveryNoTraffic(t *testing.T) {
	r, m := newTestMesh(4, 4, 256)
	done := false
	m.Send(5, 5, stats.ClassCtrlReq, 8, func(event.Cycle) { done = true })
	r.Run()
	if !done {
		t.Fatal("local message not delivered")
	}
	if r.St.TotalFlits() != 0 {
		t.Errorf("local delivery injected %d flits", r.St.TotalFlits())
	}
	if r.St.Messages[stats.ClassCtrlReq] != 1 {
		t.Errorf("message count = %d", r.St.Messages[stats.ClassCtrlReq])
	}
}

func TestContentionSerializes(t *testing.T) {
	// Two large messages over the same link: the second must arrive later.
	r, m := newTestMesh(2, 1, 128)
	var first, second event.Cycle
	m.Send(0, 1, stats.ClassData, 64, func(now event.Cycle) { first = now })
	m.Send(0, 1, stats.ClassData, 64, func(now event.Cycle) { second = now })
	r.Run()
	if second <= first {
		t.Errorf("no serialization: first=%d second=%d", first, second)
	}
	if second-first < 5 { // 5 flits each at 128-bit
		t.Errorf("second only %d cycles later, want >= flit count", second-first)
	}
}

func TestMulticastSharesLinks(t *testing.T) {
	// Multicast from tile 0 to two destinations down the same column must
	// inject fewer flit-hops than two unicasts.
	r, m := newTestMesh(1, 8, 256)
	got := map[int]bool{}
	m.Multicast(0, []int{4, 7}, stats.ClassData, 64, func(dst int, now event.Cycle) {
		got[dst] = true
	})
	r.Run()
	if !got[4] || !got[7] {
		t.Fatalf("missing deliveries: %v", got)
	}
	// Shared tree: 7 links x 3 flits = 21 (unicast would be (4+7)*3 = 33).
	if r.St.FlitHops[stats.ClassData] != 21 {
		t.Errorf("multicast flit-hops = %d, want 21", r.St.FlitHops[stats.ClassData])
	}
	if r.St.MulticastSave != 12 {
		t.Errorf("multicast savings = %d, want 12", r.St.MulticastSave)
	}
}

func TestMulticastSingleDestEqualsSend(t *testing.T) {
	r, m := newTestMesh(4, 4, 256)
	m.Multicast(0, []int{15}, stats.ClassData, 64, func(int, event.Cycle) {})
	r.Run()
	if r.St.FlitHops[stats.ClassData] != 18 {
		t.Errorf("flit-hops = %d, want 18", r.St.FlitHops[stats.ClassData])
	}
}

// Property: X-Y route length always equals Manhattan distance and every
// message is delivered exactly once.
func TestPropertyRouting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, m := newTestMesh(1+rng.Intn(8), 1+rng.Intn(8), 256)
		n := 20
		delivered := 0
		expectedHops := uint64(0)
		for i := 0; i < n; i++ {
			src := rng.Intn(m.Tiles())
			dst := rng.Intn(m.Tiles())
			if src != dst {
				expectedHops += uint64(m.Hops(src, dst))
			}
			m.Send(src, dst, stats.ClassCtrlReq, 0, func(event.Cycle) { delivered++ })
		}
		r.Run()
		return delivered == n && r.St.FlitHops[stats.ClassCtrlReq] == expectedHops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteTableMatchesPathWalk holds the shared route table to the X-Y walk
// it replaced, which stepped along x and then y through Coord and TileAt for
// every message, and Hops to the Manhattan distance, on square and
// rectangular meshes. Two meshes of one geometry share one table.
func TestRouteTableMatchesPathWalk(t *testing.T) {
	walk := func(m *Mesh, src, dst int) []int32 {
		links := []int32{}
		x, y := m.Coord(src)
		dx, dy := m.Coord(dst)
		for x != dx {
			d, step := dirEast, 1
			if dx < x {
				d, step = dirWest, -1
			}
			links = append(links, int32(m.TileAt(x, y)*int(numDirs)+int(d)))
			x += step
		}
		for y != dy {
			d, step := dirSouth, 1
			if dy < y {
				d, step = dirNorth, -1
			}
			links = append(links, int32(m.TileAt(x, y)*int(numDirs)+int(d)))
			y += step
		}
		return links
	}
	for _, g := range [][2]int{{8, 8}, {4, 4}, {3, 5}} {
		_, m := newTestMesh(g[0], g[1], 256)
		for src := 0; src < m.Tiles(); src++ {
			for dst := 0; dst < m.Tiles(); dst++ {
				want := walk(m, src, dst)
				if got := m.path(src, dst); !slices.Equal(got, want) {
					t.Fatalf("%dx%d route %d->%d = %v, want %v", g[0], g[1], src, dst, got, want)
				}
				sx, sy := m.Coord(src)
				dx, dy := m.Coord(dst)
				if got, want := m.Hops(src, dst), max(sx-dx, dx-sx)+max(sy-dy, dy-sy); got != want {
					t.Fatalf("%dx%d Hops(%d, %d) = %d, want %d", g[0], g[1], src, dst, got, want)
				}
			}
		}
		if _, other := newTestMesh(g[0], g[1], 128); other.routes != m.routes {
			t.Errorf("%dx%d: two meshes of one geometry built two route tables", g[0], g[1])
		}
	}
}

// Property: total flit-hops of a multicast never exceeds the sum of unicast
// paths and never undercuts the farthest destination's path.
func TestPropertyMulticastBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, m := newTestMesh(8, 8, 256)
		src := rng.Intn(64)
		nd := 1 + rng.Intn(4)
		dsts := make([]int, 0, nd)
		seen := map[int]bool{src: true}
		for len(dsts) < nd {
			d := rng.Intn(64)
			if !seen[d] {
				seen[d] = true
				dsts = append(dsts, d)
			}
		}
		m.Multicast(src, dsts, stats.ClassData, 64, func(int, event.Cycle) {})
		r.Run()
		flits := uint64(3)
		var sum, maxPath uint64
		for _, d := range dsts {
			h := uint64(m.Hops(src, d))
			sum += h * flits
			if h*flits > maxPath {
				maxPath = h * flits
			}
		}
		got := r.St.FlitHops[stats.ClassData]
		return got <= sum && got >= maxPath
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMeshSend(b *testing.B) {
	r, m := newTestMesh(8, 8, 256)
	fn := func(event.Cycle) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(i%64, (i*7)%64, stats.ClassData, 64, fn)
		if i%64 == 0 {
			r.Run()
		}
	}
	r.Run()
}

// TestPartitionedSendZeroAlloc proves a link-touching send — logged as a
// barrier op, committed at the drain, delivered on the
// destination's engine — allocates nothing once the per-shard pools are warm.
// Multicast copies its destinations into a pooled message too, so it is held
// to the same budget.
func TestPartitionedSendZeroAlloc(t *testing.T) {
	r, m := newTestMesh(4, 4, 256)

	delivered := 0
	arrive := func(event.Cycle, event.Ref) { delivered++ }
	arriveAt := func(int, event.Cycle) { delivered++ }
	dsts := []int{3, 12, 15}
	const perRound = 32
	send := func(event.Cycle, event.Ref) {
		for i := 0; i < perRound; i++ {
			m.SendCall(i%16, 15-i%16, stats.ClassData, 64, arrive, event.Ref{})
			m.Multicast(5, dsts, stats.ClassData, 64, arriveAt)
		}
	}
	idle := func(event.Cycle, event.Ref) {}
	round := func(fn event.CallFunc) func() {
		return func() {
			r.Eng.ScheduleCall(1, fn, event.Ref{})
			r.Run()
		}
	}
	for i := 0; i < 10; i++ { // warm the message pools, op log and engine slab
		round(send)()
	}
	// Group.Run has a small fixed cost per call; the sends must add nothing.
	base := testing.AllocsPerRun(100, round(idle))
	if avg := testing.AllocsPerRun(100, round(send)); avg != base {
		t.Fatalf("%d partitioned sends+multicasts allocate %v allocs/round over an idle round's %v, want 0",
			perRound, avg-base, base)
	}
	if want := (10 + 101) * perRound * (1 + len(dsts)); delivered != want {
		t.Fatalf("delivered %d messages, want %d", delivered, want)
	}
}

// TestAuditBalancedBooks drives unicast, local and multicast traffic with
// the sanitizer attached and requires the flit books to balance.
func TestAuditBalancedBooks(t *testing.T) {
	r, m := newTestMesh(4, 4, 256)
	m.SetChecker(sanitize.New(64))

	delivered := 0
	m.Send(0, 15, stats.ClassData, 64, func(event.Cycle) { delivered++ })
	m.Send(3, 3, stats.ClassCtrlReq, 8, func(event.Cycle) { delivered++ })
	m.Multicast(5, []int{1, 5, 9, 13}, stats.ClassStream, 32, func(int, event.Cycle) { delivered++ })
	r.Run()
	if delivered != 6 {
		t.Fatalf("delivered = %d, want 6", delivered)
	}
	m.Audit(r.St) // must not panic
	if m.sanDelivered != 6 {
		t.Errorf("sanitizer counted %d deliveries", m.sanDelivered)
	}
}

// TestAuditCatchesLostDelivery corrupts the in-flight count (as a dropped
// callback would) and requires Audit to raise a violation naming it.
func TestAuditCatchesLostDelivery(t *testing.T) {
	r, m := newTestMesh(2, 2, 256)
	m.SetChecker(sanitize.New(64))
	m.Send(0, 3, stats.ClassData, 64, func(event.Cycle) {})
	r.Run()
	m.sanInFlight++ // simulate a lost delivery
	defer func() {
		v, ok := recover().(*sanitize.Violation)
		if !ok || !strings.Contains(v.Error(), "still in flight") {
			t.Fatalf("audit did not flag the lost delivery: %v", v)
		}
	}()
	m.Audit(r.St)
}

// TestAuditCatchesFlitImbalance breaks the injected/drained books and
// requires Audit to flag the message class.
func TestAuditCatchesFlitImbalance(t *testing.T) {
	r, m := newTestMesh(2, 2, 256)
	m.SetChecker(sanitize.New(64))
	m.Send(0, 3, stats.ClassStream, 64, func(event.Cycle) {})
	r.Run()
	m.sanDrained[stats.ClassStream] -= 1
	defer func() {
		v, ok := recover().(*sanitize.Violation)
		if !ok || !strings.Contains(v.Error(), "flit books unbalanced") {
			t.Fatalf("audit did not flag the imbalance: %v", v)
		}
	}()
	m.Audit(r.St)
}

// TestDirectionConstantsMatchTrace pins the private direction enum to the
// trace package's exported mirror: link indices (tile*dirs+dir) recorded by
// AddLinkFlits must decode correctly in trace.RenderLinkHeatmap.
func TestDirectionConstantsMatchTrace(t *testing.T) {
	if int(dirEast) != trace.DirEast || int(dirWest) != trace.DirWest ||
		int(dirNorth) != trace.DirNorth || int(dirSouth) != trace.DirSouth ||
		int(numDirs) != trace.NumLinkDirs {
		t.Fatalf("noc direction enum (E=%d W=%d N=%d S=%d n=%d) diverged from trace (E=%d W=%d N=%d S=%d n=%d)",
			dirEast, dirWest, dirNorth, dirSouth, numDirs,
			trace.DirEast, trace.DirWest, trace.DirNorth, trace.DirSouth, trace.NumLinkDirs)
	}
}
