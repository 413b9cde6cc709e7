package core

import (
	"slices"

	"streamfloat/internal/event"
	"streamfloat/internal/linetab"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// bufLine is one line slot of the SE_L2 stream buffer. Lines are granted
// (credit issued, entry created), then arrive (data present), are released
// by the leader (consumption accounted for flow control), and finally
// evicted once the buffer needs the space — retention after leader release
// is what serves constant-offset trailing streams (§IV-B). A line's record
// is recycled once it has left the buffer and its release accounting is
// done, or when its group is torn down.
type bufLine struct {
	seq       int64
	addr      uint64
	elemLo    int64
	elemHi    int64
	elems     int
	arrived   bool
	gone      bool // data dropped (evicted) before full release
	leaderRel int
	waiters   []func(event.Cycle)
}

// indState tracks one indirect element's arrival at SE_L2.
type indState struct {
	arrived bool
	waiters []func(event.Cycle)
}

// childStates is the per-element state of one floated indirect child.
type childStates struct {
	sid    int
	states linetab.Table[*indState] // by element
}

func (l *seL2) getBuf(ref lineRef) *bufLine {
	b := l.e.lists(l.tile).buf.Get()
	if b == nil {
		b = new(bufLine)
	}
	b.seq, b.addr, b.elemLo, b.elemHi = ref.seq, ref.addr, ref.elemLo, ref.elemHi
	b.elems = int(ref.elemHi - ref.elemLo + 1)
	return b
}

func (l *seL2) putBuf(b *bufLine) {
	clear(b.waiters)
	*b = bufLine{waiters: b.waiters[:0]}
	l.e.lists(l.tile).buf.Put(b)
}

// indStateRef returns element idx's state, creating it if absent.
func (l *seL2) indStateRef(c *childStates, idx int64) *indState {
	p, _ := c.states.Ref(uint64(idx))
	if *p == nil {
		st := l.e.lists(l.tile).indSt.Get()
		if st == nil {
			st = new(indState)
		}
		*p = st
	}
	return *p
}

func (l *seL2) putIndState(st *indState) {
	clear(st.waiters)
	*st = indState{waiters: st.waiters[:0]}
	l.e.lists(l.tile).indSt.Put(st)
}

// l2Group is the SE_L2 state of one floated stream (its leader pattern plus
// any indirect children), including the credit-based flow control window.
type l2Group struct {
	lifeRec
	l2       *seL2
	owner    *coreStream
	decl     stream.Decl
	baseAff  stream.Affine
	children []stream.Decl

	walker    lineWalker              // grant frontier
	cap       int                     // buffer share in lines
	chunk     int                     // credit grant size
	bySeq     linetab.Table[*bufLine] // by line seq
	byAddr    linetab.Table[*bufLine] // by line address
	elemSeq   linetab.Table[int64]    // leader element -> line seq
	order     []*bufLine              // arrival order from orderHead, for eviction; nil = evicted
	orderHead int
	buffered  int

	granted    int64 // lines granted to SE_L3 so far
	consumed   int64 // leader lines fully released
	lastCredit int64

	// deadR tells readers at remote banks that the group has ended. It is
	// set by a barrier op: bank-side windows only ever read it between
	// barriers.
	deadR bool

	// onArrive, when set, fires with each arriving line's element range
	// (drives unfloated indirect children in SF-Aff mode).
	onArrive func(elemLo, elemHi int64)

	// pendingGrant parks leader requests that ran ahead of the credit
	// window, by element; they attach to their line when it is granted.
	pendingGrant linetab.Table[*waitList]

	ind []childStates // one per floated indirect child, ascending sid
}

// live reports whether g is a floated group (not nil, not torn down, and
// not a group that had nothing left to float).
func (g *l2Group) live() bool { return g != nil && g.state == floated }

// child returns the element states of floated child sid, or nil.
func (g *l2Group) child(sid int) *childStates {
	for i := range g.ind {
		if g.ind[i].sid == sid {
			return &g.ind[i]
		}
	}
	return nil
}

// seL2 is the per-tile L2 stream engine (Fig 9).
type seL2 struct {
	e      *Engines
	tile   int
	groups []*l2Group // live groups, in configuration order

	// gen disambiguates reconfigurations of the same (tile, sid). Per-tile
	// so configuration order across tiles (which depends on the shard
	// schedule) never leaks into stream keys.
	gen uint64
}

func (l *seL2) nextGen() uint64 {
	l.gen++
	return l.gen
}

func newSEL2(e *Engines, tile int) *seL2 {
	return &seL2{e: e, tile: tile}
}

// hitLatency is the latency of a core stream request matched in the SE_L2
// buffer: the private tag checks plus the buffer read.
func (l *seL2) hitLatency() event.Cycle {
	return event.Cycle(l.e.cfg.L1.LatCycles + 2)
}

// configureStream allocates the stream buffer, grants the initial credit
// window, and sends the configuration packet to the first element's home
// bank (§IV-A step 1).
func (l *seL2) configureStream(owner *coreStream, startElem int64, children []stream.Decl) *l2Group {
	// A quarter of the stream buffer per floated stream: deep enough for
	// run-ahead plus stencil retention, with four concurrent floats the
	// common worst case.
	share := l.e.cfg.SEL2BufferBytes / stream.LineBytes / 4
	if share < 8 {
		share = 8
	}
	g := &l2Group{
		l2:       l,
		lifeRec:  lifeRec{key: streamKey{tile: l.tile, sid: owner.decl.ID, gen: l.nextGen()}},
		owner:    owner,
		decl:     owner.decl,
		baseAff:  *owner.decl.Affine,
		children: children,
		walker:   newLineWalker(*owner.decl.Affine),
		cap:      share,
		chunk:    share / 2,
		ind:      make([]childStates, 0, len(children)),
	}
	if g.chunk < 1 {
		g.chunk = 1
	}
	g.bySeq.Reserve(share)
	g.byAddr.Reserve(share)
	g.order = make([]*bufLine, 0, 2*share)
	g.elemSeq.Reserve(share * elemsPerLine(g.baseAff))
	for _, ch := range children {
		if g.child(ch.ID) == nil {
			g.ind = append(g.ind, childStates{sid: ch.ID})
		}
	}
	slices.SortFunc(g.ind, func(a, b childStates) int { return a.sid - b.sid })
	// Fast-forward to the float point (mid-phase floats carry the current
	// iteration in the config packet, Table I). All line/credit counters
	// are absolute line sequence numbers so skipped prefixes stay
	// consistent between SE_L2 and SE_L3.
	for g.walker.nextElem < startElem {
		if _, ok := g.walker.next(); !ok {
			break
		}
	}
	skipped := g.walker.nextSeq
	g.granted = skipped
	g.consumed = skipped
	g.lastCredit = skipped
	first := g.grantLines(g.cap)

	if first == nil {
		return g // nothing left to float: the group never leaves atCore
	}
	l.groups = append(l.groups, g)
	bank := l.e.sys.HomeBank(first.addr)
	payload := stream.ConfigBytes(len(children))
	l.e.edge(edConfig, l.tile, startElem, g.granted, uint64(bank), l.wire(g, startElem, payload), &g.lifeRec)
	l.sanCheckCredits(g)
	startSeq := first.seq
	credits := int(g.granted)
	l.e.mesh.Send(l.tile, bank, stats.ClassStream, payload, func(event.Cycle) {
		// addStream reads this tile's group state and the registry:
		// barrier work.
		l.e.lay.Defer(bank, runAddStream,
			&cfgOp{b: l.e.l3s[bank], g: g, startElem: startElem, startSeq: startSeq, credits: credits})
	})
	return g
}

// grantLines extends the grant frontier by up to n lines, creating buffer
// entries, and returns the first newly granted line (nil if exhausted).
func (g *l2Group) grantLines(n int) *bufLine {
	var first *bufLine
	for i := 0; i < n; i++ {
		ref, ok := g.walker.next()
		if !ok {
			break
		}
		b := g.l2.getBuf(ref)
		g.bySeq.Put(uint64(ref.seq), b)
		g.byAddr.Put(ref.addr, b)
		for e := ref.elemLo; e <= ref.elemHi; e++ {
			g.elemSeq.Put(uint64(e), ref.seq)
			if wl, ok := g.pendingGrant.Delete(uint64(e)); ok {
				b.waiters = append(b.waiters, wl.fns...)
				g.l2.e.lists(g.l2.tile).putWaitList(wl)
			}
		}
		g.granted++
		if first == nil {
			first = b
		}
	}
	return first
}

// arrive records a floated line's data reaching this tile's stream buffer.
func (l *seL2) arrive(g *l2Group, seq int64) {
	if !g.live() {
		return
	}
	b, _ := g.bySeq.Get(uint64(seq))
	if b == nil || b.gone {
		return
	}
	l.e.lay.St(l.tile).SEL2Accesses++
	if l.e.tr != nil {
		l.e.tr.Emit(uint64(l.e.lay.Eng(l.tile).Now()), l.tile, trace.KindSEL2Arrive,
			g.key.tag(), seq, int64(g.buffered))
	}
	b.arrived = true
	for _, w := range b.waiters {
		l.e.lay.Eng(l.tile).Schedule(2, w)
	}
	clear(b.waiters)
	b.waiters = b.waiters[:0]
	if g.onArrive != nil {
		g.onArrive(b.elemLo, b.elemHi)
	}
	if len(g.order) == cap(g.order) && g.orderHead > 0 {
		n := copy(g.order, g.order[g.orderHead:])
		clear(g.order[n:])
		g.order, g.orderHead = g.order[:n], 0
	}
	g.order = append(g.order, b)
	g.buffered++
	g.evictOverflow()
	l.sanCheckBuffer(g)
}

// setOnArrive installs the per-line arrival hook (SF-Aff indirect chaining).
func (l *seL2) setOnArrive(g *l2Group, fn func(elemLo, elemHi int64)) {
	if g.live() {
		g.onArrive = fn
	}
}

// evictOverflow keeps the buffer within its allocated share, preferring
// lines already fully released by the leader (kept only for trailing
// streams), and never dropping a line someone is waiting on.
func (g *l2Group) evictOverflow() {
	for g.buffered > g.cap {
		idx := -1
		for pass := 0; pass < 2 && idx < 0; pass++ {
			for i := g.orderHead; i < len(g.order); i++ {
				b := g.order[i]
				if b == nil || len(b.waiters) > 0 {
					continue
				}
				if pass == 0 && b.leaderRel < b.elems {
					continue
				}
				idx = i
				break
			}
		}
		if idx < 0 {
			return // everything pinned; tolerate transient overrun
		}
		b := g.order[idx]
		g.order[idx] = nil
		for g.orderHead < len(g.order) && g.order[g.orderHead] == nil {
			g.orderHead++
		}
		g.buffered--
		if cur, _ := g.byAddr.Get(b.addr); cur == b {
			g.byAddr.Delete(b.addr)
		}
		if b.leaderRel >= b.elems {
			g.bySeq.Delete(uint64(b.seq))
			g.l2.putBuf(b)
		} else {
			b.gone = true // keep for release accounting
		}
	}
}

// requestLeader serves the leader stream's element idx from the buffer.
// It returns false when the element cannot be served (core must fall back).
func (l *seL2) requestLeader(g *l2Group, idx int64, cb func(event.Cycle)) bool {
	if !g.live() {
		return false
	}
	seq, ok := g.elemSeq.Get(uint64(idx))
	if !ok {
		if idx >= g.walker.nextElem {
			// Ahead of the credit window: the grant is guaranteed to come
			// as consumption advances, so park rather than fall back.
			l.e.lists(l.tile).park(&g.pendingGrant, uint64(idx), cb)
			return true
		}
		return false
	}
	b, _ := g.bySeq.Get(uint64(seq))
	if b == nil || b.gone {
		return false
	}
	l.serveLine(b, cb)
	return true
}

// requestByAddr serves a trailing offset-group member by address (the
// buffer is address-tagged, §IV-A).
func (l *seL2) requestByAddr(g *l2Group, addr uint64, cb func(event.Cycle)) bool {
	if !g.live() {
		return false
	}
	b, _ := g.byAddr.Get(addr &^ (stream.LineBytes - 1))
	if b == nil || b.gone {
		return false
	}
	l.serveLine(b, cb)
	return true
}

func (l *seL2) serveLine(b *bufLine, cb func(event.Cycle)) {
	if b.arrived {
		l.e.lay.St(l.tile).SEL2Accesses++
		l.e.lay.Eng(l.tile).Schedule(l.hitLatency(), cb)
		return
	}
	b.waiters = append(b.waiters, cb)
}

// requestIndirect serves a floated indirect element.
func (l *seL2) requestIndirect(g *l2Group, childSid int, idx int64, cb func(event.Cycle)) bool {
	if !g.live() {
		return false
	}
	ch := g.child(childSid)
	if ch == nil {
		return false
	}
	st := l.indStateRef(ch, idx)
	if st.arrived {
		l.e.lay.St(l.tile).SEL2Accesses++
		l.e.lay.Eng(l.tile).Schedule(l.hitLatency(), cb)
		return true
	}
	st.waiters = append(st.waiters, cb)
	return true
}

// indirectArrive records a subline response for a floated indirect element.
func (l *seL2) indirectArrive(g *l2Group, childSid int, idx int64) {
	if !g.live() {
		return
	}
	ch := g.child(childSid)
	if ch == nil {
		return
	}
	st := l.indStateRef(ch, idx)
	l.e.lay.St(l.tile).SEL2Accesses++
	st.arrived = true
	for _, w := range st.waiters {
		l.e.lay.Eng(l.tile).Schedule(2, w)
	}
	clear(st.waiters)
	st.waiters = st.waiters[:0]
}

// releaseIndirect retires a floated indirect element.
func (l *seL2) releaseIndirect(g *l2Group, childSid int, idx int64) {
	if ch := g.child(childSid); ch != nil {
		if st, ok := ch.states.Delete(uint64(idx)); ok {
			l.putIndState(st)
		}
	}
}

// releaseLeader retires a leader element; full lines advance the coarse
// credit flow control (§IV-A): when half the window has been consumed, a
// credit message tops the SE_L3 back up.
func (l *seL2) releaseLeader(g *l2Group, idx int64) {
	seq, ok := g.elemSeq.Delete(uint64(idx))
	if !ok {
		return
	}
	b, _ := g.bySeq.Get(uint64(seq))
	if b == nil {
		return
	}
	b.leaderRel++
	if b.leaderRel < b.elems {
		return
	}
	if b.gone {
		g.bySeq.Delete(uint64(b.seq))
		l.putBuf(b)
	}
	g.consumed++
	l.sanCheckCredits(g)
	if !g.live() || g.consumed-g.lastCredit < int64(g.chunk) {
		return
	}
	g.lastCredit = g.consumed
	first := g.grantLines(g.chunk)
	l.sanCheckCredits(g)
	if first == nil {
		return // pattern fully granted; SE_L3 finishes on current credits
	}
	n := int(g.granted) // new absolute credit level
	if l.e.san != nil {
		l.e.san.Trace(sanitize.Record{Cycle: uint64(l.e.lay.Eng(l.tile).Now()), Tile: l.tile,
			Comp: "sel2", Event: "credit", Key: g.key.tag(), A: g.granted, B: g.consumed})
	}
	st := l.e.lay.St(l.tile)
	st.StreamCredits++
	st.TLBTranslations++
	op := l.e.lists(l.tile).credit.Get()
	if op == nil {
		op = new(creditOp)
	}
	op.l, op.key, op.level, op.bank = l, g.key, n, l.e.sys.HomeBank(first.addr)
	l.e.mesh.SendCall(l.tile, op.bank, stats.ClassStream, 8, runCreditAtBank, event.Ref{Obj: op})
}

// terminate implements stream_end (and mid-phase sinking): pending waiters
// are served by fallback loads, SE_L3 state is torn down, and the buffer is
// reclaimed.
func (l *seL2) terminate(g *l2Group, sink bool) {
	if !g.live() {
		return
	}
	var sk int64
	if sink {
		sk = 1
	}
	l.e.edge(edRelease, l.tile, g.consumed, sk, 0, nil, &g.lifeRec)
	if i := slices.Index(l.groups, g); i >= 0 {
		l.groups = slices.Delete(l.groups, i, i+1)
	}
	// Serve anyone still waiting with plain loads so no request is lost.
	// fallback schedules events: drain in key order so the simulation stays
	// deterministic. The buffer's records go back to the freelists: nothing
	// reads a dead group's buffer again.
	core := l.e.cores[l.tile]
	lists := l.e.lists(l.tile)
	for _, seq := range lists.sorted(g.bySeq.Keys) {
		b, _ := g.bySeq.Get(seq)
		for _, w := range b.waiters {
			core.fallback(b.addr, g.decl, w)
		}
		l.putBuf(b)
	}
	g.bySeq.Clear()
	g.byAddr.Clear()
	g.elemSeq.Clear()
	clear(g.order)
	g.order, g.orderHead = g.order[:0], 0
	for _, e := range lists.sorted(g.pendingGrant.Keys) {
		wl, _ := g.pendingGrant.Delete(e)
		for _, w := range wl.fns {
			core.fallback(g.baseAff.AddrAt(int64(e)), g.decl, w)
		}
		l.e.lists(l.tile).putWaitList(wl)
	}
	for i := range g.ind {
		ch := &g.ind[i]
		var child *stream.Decl
		for i := range g.children {
			if g.children[i].ID == ch.sid {
				child = &g.children[i]
			}
		}
		for _, idx := range lists.sorted(ch.states.Keys) {
			st, _ := ch.states.Get(idx)
			for _, w := range st.waiters {
				v := l.e.bk.ReadU32(g.baseAff.AddrAt(int64(idx)))
				core.fallback(child.Indirect.AddrFor(uint64(v)), *child, w)
			}
			l.putIndState(st)
		}
		ch.states.Clear()
	}
	// Tear down the remote stream if it is still running. The registry
	// lookup (and the deadR publication remote banks read) waits for the
	// barrier.
	l.e.lay.Defer(l.tile, runStreamEnd, &endOp{l: l, g: g})
}

// endOp carries a group's remote teardown — the deadR publication plus the
// registry-routed end message — to the quantum barrier.
type endOp struct {
	l *seL2
	g *l2Group
}

func runStreamEnd(_ event.Cycle, arg any) {
	op := arg.(*endOp)
	l, g := op.l, op.g
	g.deadR = true
	s := l.e.lookup(g.key)
	if s == nil || s.state == ended {
		return
	}
	l.e.edge(edEndMsg, l.tile, 0, 0, 0, nil, &g.lifeRec)
	key := g.key
	bank := s.curBank
	l.e.mesh.Send(l.tile, bank, stats.ClassStream, 8, func(event.Cycle) {
		l.e.lay.Defer(bank, runTerminate, &termOp{e: l.e, key: key})
	})
}

// noteDirtyEvict checks a dirty L2 eviction against the address-tagged
// stream buffers (§IV-E, aliasing window 2); a match marks the stream
// aliased and sinks it.
func (l *seL2) noteDirtyEvict(lineAddr uint64) {
	// groups is a map and sinking schedules events: pick the lowest-keyed
	// match so the (rare) multi-group alias stays deterministic.
	var hit *l2Group
	for _, g := range l.groups {
		if b, _ := g.byAddr.Get(lineAddr); b != nil && !b.gone {
			if hit == nil || g.key.sid < hit.key.sid ||
				(g.key.sid == hit.key.sid && g.key.gen < hit.key.gen) {
				hit = g
			}
		}
	}
	if hit != nil {
		l.e.cores[l.tile].sinkStream(hit.owner, true)
	}
}
