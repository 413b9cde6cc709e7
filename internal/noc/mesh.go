// Package noc models the on-chip interconnect: a 2D mesh with X-Y dimension-
// order routing, 5-stage routers, single-cycle links, bandwidth-limited link
// occupancy, flit serialization by link width, and hardware multicast trees
// (used by stream confluence). It accounts traffic as flits and flit-hops by
// message class — the metric Fig 15 reports.
package noc

import (
	"fmt"
	"sync"

	"streamfloat/internal/event"
	"streamfloat/internal/par"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/trace"
)

// HeaderBytes is the per-packet header (routing, type, ids). Every message
// pays it before payload serialization.
const HeaderBytes = 8

// Direction of a mesh link leaving a router.
type direction int

const (
	dirEast direction = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// Mesh is the on-chip network. A send is issued from its source tile's
// execution context; link reservation happens at the quantum barrier.
type Mesh struct {
	lay       *par.Layout
	w, h      int
	linkBits  int
	routerLat event.Cycle
	linkLat   event.Cycle

	// linkFree[tile*numDirs+dir] is the first cycle at which the directed
	// link leaving tile in dir can accept a new head flit.
	linkFree []event.Cycle
	numLinks int

	routes *routeTable // X-Y routes of this geometry, shared by every mesh
	flits  []int32     // flits[p] = Flits(p) for payloads below len(flits)

	// Each tile's sends are issued from its own shard: local (src == dst)
	// deliveries stay entirely shard-local, while link-touching sends are
	// logged as barrier ops — link reservation against the shared linkFree
	// state happens single-threaded at the quantum barrier, in canonical
	// (cycle, source tile, issue order), and deliveries are scheduled onto
	// the destination tile's engine. The conservative lookahead guarantees
	// every such delivery lands in a later quantum.
	sendFree  [][]*sendMsg  // per-shard sendMsg freelists
	mcastFree [][]*mcastMsg // per-shard mcastMsg freelists
	// The barrier-op handlers, bound once in New: passing the method value
	// m.commitSendOp at each Defer would heap-allocate it per send.
	commitSend, commitMcast func(event.Cycle, any)

	// Multicast tree-link dedup, epoch-stamped so no per-call map is needed:
	// seenEpoch[l] == epoch marks link l as already reserved by this call.
	seenArrive []event.Cycle
	seenEpoch  []uint64
	epoch      uint64

	// tr, when non-nil, records send/hop/deliver events and per-link flit
	// counters for the heatmap. Purely observational.
	tr *trace.Tracer

	// Sanitizer state: flit-conservation books per message class. A nil
	// chk disables all probes.
	chk          *sanitize.Checker
	sanInjected  [stats.NumClasses]uint64 // flits placed on links
	sanDrained   [stats.NumClasses]uint64 // flits whose message fully delivered
	sanInFlight  uint64                   // deliveries scheduled but not yet invoked
	sanDelivered uint64
}

// SetChecker attaches sanitizer probes: every Send/Multicast is traced and
// double-entry flit books are kept so Audit can prove that every flit
// injected into the mesh was drained by a delivery (per message class) and
// that no delivery callback was lost. nil detaches.
func (m *Mesh) SetChecker(chk *sanitize.Checker) { m.chk = chk }

// SetTracer attaches the structured tracer to the mesh. nil detaches.
func (m *Mesh) SetTracer(tr *trace.Tracer) { m.tr = tr }

// New builds a w x h mesh over the machine's shard layout, with the given
// link width in bits and per-hop router/link latencies.
func New(lay *par.Layout, w, h, linkBits, routerLat, linkLat int) *Mesh {
	if w <= 0 || h <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	m := &Mesh{
		lay:       lay,
		w:         w,
		h:         h,
		linkBits:  linkBits,
		routerLat: event.Cycle(routerLat),
		linkLat:   event.Cycle(linkLat),
		linkFree:  make([]event.Cycle, w*h*int(numDirs)),
		sendFree:  make([][]*sendMsg, len(lay.Shards)),
		mcastFree: make([][]*mcastMsg, len(lay.Shards)),
	}
	m.numLinks = 2 * ((w-1)*h + w*(h-1))
	m.commitSend, m.commitMcast = m.commitSendOp, m.commitMcastOp
	m.routes = routesFor(w, h)
	m.flits = make([]int32, flitTablePayloads)
	for p := range m.flits {
		m.flits[p] = int32(m.flitsFor(p))
	}
	return m
}

// flitTablePayloads bounds the payloads Flits answers from its table. It
// covers control messages, stream configurations and whole lines, nearly all
// traffic; larger payloads, such as bulk prefetch requests, are computed.
const flitTablePayloads = 129

// routeTable holds every X-Y route of one w x h mesh: the links from src to
// dst are links[off[src*n+dst]:off[src*n+dst+1]], each a directed link index
// (source router * numDirs + exit direction), and the route's length is its
// hop count. It is immutable once built.
type routeTable struct {
	off   []int32
	links []int32
}

// routeTables shares one routeTable per mesh geometry across machines.
var routeTables sync.Map // [2]int{w, h} -> *routeTable

func routesFor(w, h int) *routeTable {
	key := [2]int{w, h}
	if rt, ok := routeTables.Load(key); ok {
		return rt.(*routeTable)
	}
	n := w * h
	rt := &routeTable{off: make([]int32, 0, n*n+1)}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			rt.off = append(rt.off, int32(len(rt.links)))
			rt.links = appendPath(rt.links, w, src, dst)
		}
	}
	rt.off = append(rt.off, int32(len(rt.links)))
	actual, _ := routeTables.LoadOrStore(key, rt)
	return actual.(*routeTable)
}

// appendPath appends the X-Y route from src to dst on a mesh w tiles wide:
// first along x, then along y.
func appendPath(links []int32, w, src, dst int) []int32 {
	x, y := src%w, src/w
	dx, dy := dst%w, dst/w
	for x != dx {
		from := y*w + x
		if dx > x {
			links = append(links, int32(from*int(numDirs)+int(dirEast)))
			x++
		} else {
			links = append(links, int32(from*int(numDirs)+int(dirWest)))
			x--
		}
	}
	for y != dy {
		from := y*w + x
		if dy > y {
			links = append(links, int32(from*int(numDirs)+int(dirSouth)))
			y++
		} else {
			links = append(links, int32(from*int(numDirs)+int(dirNorth)))
			y--
		}
	}
	return links
}

// sendMsg is one logged unicast awaiting barrier commit. Instances are
// pooled per shard: popped in shard context at send time, pushed back at the
// barrier — the two never overlap in time, so no locking is needed.
type sendMsg struct {
	src, dst int
	class    stats.MsgClass
	flits    int
	call     event.CallFunc
	ref      event.Ref
}

// mcastMsg is one logged multicast awaiting barrier commit.
type mcastMsg struct {
	src     int
	class   stats.MsgClass
	flits   int
	deliver func(dst int, now event.Cycle)
	dsts    []int
}

// Lookahead is the minimum latency of any cross-tile interaction: one
// router traversal plus one link traversal. It is the conservative quantum
// width — a message sent at cycle t is never delivered before t+Lookahead,
// whatever the congestion.
func (m *Mesh) Lookahead() event.Cycle { return m.routerLat + m.linkLat }

// NumLinks reports the number of unidirectional links, for utilization math.
func (m *Mesh) NumLinks() int { return m.numLinks }

// Tiles reports the number of routers.
func (m *Mesh) Tiles() int { return m.w * m.h }

// Coord converts a tile index to (x, y).
func (m *Mesh) Coord(tile int) (x, y int) { return tile % m.w, tile / m.w }

// TileAt converts (x, y) to a tile index.
func (m *Mesh) TileAt(x, y int) int { return y*m.w + x }

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(src, dst int) int {
	k := src*m.w*m.h + dst
	return int(m.routes.off[k+1] - m.routes.off[k])
}

// Flits returns the number of flits a message with the given payload
// occupies on this mesh's links (header included).
func (m *Mesh) Flits(payloadBytes int) int {
	if uint(payloadBytes) < uint(len(m.flits)) {
		return int(m.flits[payloadBytes])
	}
	return m.flitsFor(payloadBytes)
}

// flitsFor computes Flits.
func (m *Mesh) flitsFor(payloadBytes int) int {
	bits := (HeaderBytes + payloadBytes) * 8
	return max((bits+m.linkBits-1)/m.linkBits, 1)
}

// path returns the X-Y route from src to dst as a sequence of directed link
// indices (each link identified by its source router and exit direction).
// An empty path means src == dst.
func (m *Mesh) path(src, dst int) []int32 {
	k := src*m.w*m.h + dst
	return m.routes.links[m.routes.off[k]:m.routes.off[k+1]]
}

// Send routes one message and invokes deliver at arrival. Bandwidth is
// modeled by reserving each traversed link for the message's flit count;
// latency is per-hop router+link plus serialization of the tail.
func (m *Mesh) Send(src, dst int, class stats.MsgClass, payloadBytes int, deliver func(event.Cycle)) {
	m.SendCall(src, dst, class, payloadBytes, runDeliver, event.Ref{Obj: deliver})
}

// runDeliver and runDeliverTo adapt the two delivery-callback shapes onto
// the fixed-payload event form; the func values ride in Ref.Obj unboxed.
func runDeliver(now event.Cycle, ref event.Ref) {
	ref.Obj.(func(event.Cycle))(now)
}

func runDeliverTo(now event.Cycle, ref event.Ref) {
	ref.Obj.(func(int, event.Cycle))(int(ref.A), now)
}

// SendCall is Send with a fixed-payload delivery callback: call(now, ref)
// fires at arrival and the whole send allocates nothing.
func (m *Mesh) SendCall(src, dst int, class stats.MsgClass, payloadBytes int, call event.CallFunc, ref event.Ref) {
	flits := m.Flits(payloadBytes)
	st := m.lay.St(src)
	eng := m.lay.Eng(src)
	st.Messages[class]++
	if src == dst {
		// Local delivery through the tile's crossbar: one cycle, no link
		// traffic — entirely shard-local.
		if m.tr != nil {
			m.tr.Emit(uint64(eng.Now()), src, trace.KindNocSend, nocKey(src, dst), 0, int64(class))
		}
		if m.chk != nil {
			call, ref = m.probeMessage(eng.Now(), src, dst, class, 0, call, ref)
		}
		eng.ScheduleCall(1, call, ref)
		return
	}
	if m.chk != nil {
		call, ref = m.probeMessage(eng.Now(), src, dst, class, flits, call, ref)
	}
	if m.tr != nil {
		m.tr.Emit(uint64(eng.Now()), src, trace.KindNocSend, nocKey(src, dst), int64(flits), int64(class))
	}
	st.Flits[class] += uint64(flits)
	// Log the send for canonical link reservation at the quantum barrier.
	// The message struct is pooled per shard.
	msg := m.getSend(src)
	*msg = sendMsg{src: src, dst: dst, class: class, flits: flits, call: call, ref: ref}
	m.lay.Defer(src, m.commitSend, msg)
}

// commitSendOp is the barrier op of one logged unicast: it reserves the X-Y
// path against the link-occupancy state and schedules the delivery on the
// destination tile's engine. sendAt is the cycle the message was injected.
func (m *Mesh) commitSendOp(sendAt event.Cycle, arg any) {
	msg := arg.(*sendMsg)
	src, dst, class, flits := msg.src, msg.dst, msg.class, msg.flits
	// Traffic is counted once per message; the per-hop loop only reserves
	// links and traces.
	path := m.path(src, dst)
	st := m.lay.St(src)
	st.FlitHops[class] += uint64(flits * len(path))
	st.LinkBusy += uint64(flits * len(path))
	arrive := sendAt
	for _, l := range path {
		start := arrive
		if m.linkFree[l] > start {
			start = m.linkFree[l]
		}
		m.linkFree[l] = start + event.Cycle(flits)
		if m.tr != nil {
			m.tr.AddLinkFlits(int(l), flits)
			m.tr.Emit(uint64(start), int(l)/int(numDirs), trace.KindNocHop, uint64(l),
				int64(flits), int64(start+event.Cycle(flits)))
		}
		arrive = start + m.routerLat + m.linkLat
	}
	arrive += event.Cycle(flits - 1) // tail serialization at ejection
	if m.tr != nil {
		// Stamped with the (future) arrival cycle at schedule time: no
		// wrapper closure, so tracing never perturbs the delivery path.
		m.tr.Emit(uint64(arrive), dst, trace.KindNocDeliver, nocKey(src, dst), int64(flits), int64(src))
	}
	m.lay.Eng(dst).AtCall(arrive, msg.call, msg.ref)
	si := m.lay.Index(src)
	*msg = sendMsg{}
	m.sendFree[si] = append(m.sendFree[si], msg)
}

// getSend pops a pooled sendMsg for src's shard. The pool is popped in shard
// context and refilled at the barrier; the two phases never overlap.
func (m *Mesh) getSend(src int) *sendMsg {
	si := m.lay.Index(src)
	free := m.sendFree[si]
	if n := len(free); n > 0 {
		msg := free[n-1]
		m.sendFree[si] = free[:n-1]
		return msg
	}
	return new(sendMsg)
}

// getMcast pops a pooled mcastMsg for src's shard.
func (m *Mesh) getMcast(src int) *mcastMsg {
	si := m.lay.Index(src)
	free := m.mcastFree[si]
	if n := len(free); n > 0 {
		mc := free[n-1]
		m.mcastFree[si] = free[:n-1]
		return mc
	}
	return new(mcastMsg)
}

// Multicast routes one message to several destinations over a shared X-Y
// tree: links common to multiple destinations carry the flits once. deliver
// is invoked once per destination with that destination's arrival time.
func (m *Mesh) Multicast(src int, dsts []int, class stats.MsgClass, payloadBytes int, deliver func(dst int, now event.Cycle)) {
	if len(dsts) == 0 {
		return
	}
	if len(dsts) == 1 {
		m.SendCall(src, dsts[0], class, payloadBytes, runDeliverTo,
			event.Ref{Obj: deliver, A: int64(dsts[0])})
		return
	}
	flits := m.Flits(payloadBytes)
	st := m.lay.St(src)
	eng := m.lay.Eng(src)
	st.Messages[class]++
	st.Flits[class] += uint64(flits)
	if m.tr != nil {
		m.tr.Emit(uint64(eng.Now()), src, trace.KindNocSend, nocKey(src, dsts[0]),
			int64(flits), int64(class))
	}
	if m.chk != nil {
		// The tree carries the flits once however many branches deliver
		// them; drain the books when the last destination has been served.
		m.sanInjected[class] += uint64(flits)
		m.sanInFlight += uint64(len(dsts))
		m.chk.Trace(sanitize.Record{
			Cycle: uint64(eng.Now()), Tile: src, Comp: "noc", Event: "mcast",
			Key: nocKey(src, dsts[0]), A: int64(flits), B: int64(len(dsts)),
		})
		inner := deliver
		remaining := len(dsts)
		deliver = func(dst int, now event.Cycle) {
			m.sanInFlight--
			m.sanDelivered++
			if remaining--; remaining == 0 {
				m.sanDrained[class] += uint64(flits)
			}
			inner(dst, now)
		}
	}
	// Log the multicast for canonical tree reservation at the quantum
	// barrier. The destination slice is copied into the pooled message
	// (callers reuse their slices).
	mc := m.getMcast(src)
	mc.src, mc.class, mc.flits, mc.deliver = src, class, flits, deliver
	mc.dsts = append(mc.dsts[:0], dsts...)
	m.lay.Defer(src, m.commitMcast, mc)
}

// commitMcastOp is the barrier op of one logged multicast: it reserves the
// shared X-Y tree and schedules each destination's delivery. sendAt is the
// injection cycle.
func (m *Mesh) commitMcastOp(sendAt event.Cycle, arg any) {
	mc := arg.(*mcastMsg)
	src, dsts, class, flits, deliver := mc.src, mc.dsts, mc.class, mc.flits, mc.deliver
	st := m.lay.St(src)
	// Union of links across destination paths; each tree link carries the
	// flits exactly once. Links already reserved by an earlier branch are
	// recognized by their epoch stamp.
	if m.seenEpoch == nil {
		m.seenArrive = make([]event.Cycle, len(m.linkFree))
		m.seenEpoch = make([]uint64, len(m.linkFree))
	}
	m.epoch++
	var unicastHops, treeHops int
	for _, dst := range dsts {
		if dst == src {
			m.lay.Eng(src).ScheduleCall(1, runDeliverTo, event.Ref{Obj: deliver, A: int64(dst)})
			continue
		}
		arrive := sendAt
		for _, l := range m.path(src, dst) {
			unicastHops++
			if m.seenEpoch[l] == m.epoch {
				// Link already reserved by an earlier branch of the tree;
				// reuse its timing.
				arrive = m.seenArrive[l]
				continue
			}
			treeHops++
			start := arrive
			if m.linkFree[l] > start {
				start = m.linkFree[l]
			}
			m.linkFree[l] = start + event.Cycle(flits)
			if m.tr != nil {
				m.tr.AddLinkFlits(int(l), flits)
				m.tr.Emit(uint64(start), int(l)/int(numDirs), trace.KindNocHop, uint64(l),
					int64(flits), int64(start+event.Cycle(flits)))
			}
			arrive = start + m.routerLat + m.linkLat
			m.seenArrive[l] = arrive
			m.seenEpoch[l] = m.epoch
		}
		at := arrive + event.Cycle(flits-1)
		if m.tr != nil {
			m.tr.Emit(uint64(at), dst, trace.KindNocDeliver, nocKey(src, dst), int64(flits), int64(src))
		}
		m.lay.Eng(dst).AtCall(at, runDeliverTo, event.Ref{Obj: deliver, A: int64(dst)})
	}
	st.FlitHops[class] += uint64(treeHops * flits)
	st.LinkBusy += uint64(treeHops * flits)
	if unicastHops > treeHops {
		st.MulticastSave += uint64((unicastHops - treeHops) * flits)
	}
	mc.deliver = nil
	mc.dsts = mc.dsts[:0]
	si := m.lay.Index(src)
	m.mcastFree[si] = append(m.mcastFree[si], mc)
}

// nocKey tags a src/dst pair for trace filtering without colliding with
// the line addresses and stream keys other components use.
func nocKey(src, dst int) uint64 {
	return uint64(0xA)<<56 | uint64(src)<<16 | uint64(dst)
}

// probeMessage books one unicast message into the sanitizer's conservation
// accounts and returns a wrapped delivery callback that balances them
// (allocating — the sanitizer is off in measured runs). flits is 0 for
// local (src == dst) deliveries, which never touch a link.
func (m *Mesh) probeMessage(now event.Cycle, src, dst int, class stats.MsgClass, flits int, call event.CallFunc, ref event.Ref) (event.CallFunc, event.Ref) {
	m.sanInjected[class] += uint64(flits)
	m.sanInFlight++
	m.chk.Trace(sanitize.Record{
		Cycle: uint64(now), Tile: src, Comp: "noc", Event: "send:" + class.String(),
		Key: nocKey(src, dst), A: int64(flits), B: int64(dst),
	})
	wrapped := func(now event.Cycle, _ event.Ref) {
		m.sanInFlight--
		m.sanDelivered++
		m.sanDrained[class] += uint64(flits)
		call(now, ref)
	}
	return wrapped, event.Ref{}
}

// Audit verifies the end-of-run conservation laws: no delivery is still in
// flight, every injected flit was drained by a completed delivery, and the
// sanitizer's independent books agree with total, the machine's merged Stats
// the figures report. It is a no-op without an attached checker; call it only
// once the event queue has drained (in-flight messages are not violations
// mid-run).
func (m *Mesh) Audit(total *stats.Stats) {
	if m.chk == nil {
		return
	}
	if m.sanInFlight != 0 {
		m.chk.Failf(0, "noc: %d deliveries still in flight after run completed (%d delivered)",
			m.sanInFlight, m.sanDelivered)
	}
	for c := stats.MsgClass(0); c < stats.NumClasses; c++ {
		if m.sanInjected[c] != m.sanDrained[c] {
			m.chk.Failf(0, "noc: class %v flit books unbalanced: injected %d, drained %d",
				c, m.sanInjected[c], m.sanDrained[c])
		}
		if m.sanInjected[c] != total.Flits[c] {
			m.chk.Failf(0, "noc: class %v stats disagree with sanitizer books: Stats.Flits=%d, injected=%d",
				c, total.Flits[c], m.sanInjected[c])
		}
	}
}

// String describes the mesh.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh %dx%d %d-bit links", m.w, m.h, m.linkBits)
}
