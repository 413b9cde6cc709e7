package core

import (
	"streamfloat/internal/event"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// bufLine is one line slot of the SE_L2 stream buffer. Lines are granted
// (credit issued, entry created), then arrive (data present), are released
// by the leader (consumption accounted for flow control), and finally
// evicted once the buffer needs the space — retention after leader release
// is what serves constant-offset trailing streams (§IV-B).
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

// l2Group is the SE_L2 state of one floated stream (its leader pattern plus
// any indirect children), including the credit-based flow control window.
type l2Group struct {
	l2       *seL2
	key      streamKey
	owner    *coreStream
	decl     stream.Decl
	baseAff  stream.Affine
	children []stream.Decl

	walker   *lineWalker // grant frontier
	cap      int         // buffer share in lines
	chunk    int         // credit grant size
	bySeq    map[int64]*bufLine
	byAddr   map[uint64]*bufLine
	elemSeq  map[int64]int64
	order    []*bufLine // arrival order, for eviction
	buffered int

	granted    int64 // lines granted to SE_L3 so far
	consumed   int64 // leader lines fully released
	lastCredit int64
	dead       bool

	// deadR mirrors dead for readers at remote banks. It is set by a barrier
	// op: bank-side windows only ever read it between barriers.
	deadR bool

	// onArrive, when set, fires with each arriving line's element range
	// (drives unfloated indirect children in SF-Aff mode).
	onArrive func(elemLo, elemHi int64)

	// pendingGrant parks leader requests that ran ahead of the credit
	// window; they attach to their line when it is granted.
	pendingGrant map[int64][]func(event.Cycle)

	ind map[int]map[int64]*indState // child sid -> element state
}

// seL2 is the per-tile L2 stream engine (Fig 9).
type seL2 struct {
	e      *Engines
	tile   int
	groups map[streamKey]*l2Group

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
	return &seL2{e: e, tile: tile, groups: make(map[streamKey]*l2Group)}
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
	share := l.e.cfg.SEL2BufferBytes / lineBytes / 4
	if share < 8 {
		share = 8
	}
	g := &l2Group{
		l2:           l,
		key:          streamKey{tile: l.tile, sid: owner.decl.ID, gen: l.nextGen()},
		owner:        owner,
		decl:         owner.decl,
		baseAff:      *owner.decl.Affine,
		children:     children,
		walker:       newLineWalker(*owner.decl.Affine),
		cap:          share,
		chunk:        share / 2,
		bySeq:        make(map[int64]*bufLine),
		byAddr:       make(map[uint64]*bufLine),
		elemSeq:      make(map[int64]int64),
		ind:          make(map[int]map[int64]*indState),
		pendingGrant: make(map[int64][]func(event.Cycle)),
	}
	if g.chunk < 1 {
		g.chunk = 1
	}
	for _, ch := range children {
		g.ind[ch.ID] = make(map[int64]*indState)
	}
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
	l.groups[g.key] = g

	if first == nil {
		// Nothing left to float.
		g.dead = true
		g.deadR = true
		delete(l.groups, g.key)
		return g
	}
	l.e.sanTrace(l.tile, "sel2", "cfg", sanStreamKey(g.key.tile, g.key.sid), startElem, g.granted)
	l.sanCheckCredits(g)
	st := l.e.lay.St(l.tile)
	st.StreamConfigs++
	st.TLBTranslations++
	bank := l.e.cfg.HomeBank(first.addr)
	payload := stream.ConfigBytes(len(children))
	l.sanCheckWire(g, startElem, payload)
	l.traceConfig(g, startElem, bank)
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
		b := &bufLine{seq: ref.seq, addr: ref.addr, elemLo: ref.elemLo, elemHi: ref.elemHi,
			elems: int(ref.elemHi - ref.elemLo + 1)}
		g.bySeq[ref.seq] = b
		g.byAddr[ref.addr] = b
		for e := ref.elemLo; e <= ref.elemHi; e++ {
			g.elemSeq[e] = ref.seq
			if ws := g.pendingGrant[e]; ws != nil {
				b.waiters = append(b.waiters, ws...)
				delete(g.pendingGrant, e)
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
	if g.dead {
		return
	}
	b := g.bySeq[seq]
	if b == nil || b.gone {
		return
	}
	l.e.lay.St(l.tile).SEL2Accesses++
	if l.e.tr != nil {
		l.e.tr.Emit(uint64(l.e.lay.Eng(l.tile).Now()), l.tile, trace.KindSEL2Arrive,
			trace.StreamKey(g.key.tile, g.key.sid), seq, int64(g.buffered))
	}
	b.arrived = true
	for _, w := range b.waiters {
		l.e.lay.Eng(l.tile).Schedule(2, w)
	}
	b.waiters = nil
	if g.onArrive != nil {
		g.onArrive(b.elemLo, b.elemHi)
	}
	g.order = append(g.order, b)
	g.buffered++
	g.evictOverflow()
	l.sanCheckBuffer(g)
}

// setOnArrive installs the per-line arrival hook (SF-Aff indirect chaining).
func (l *seL2) setOnArrive(g *l2Group, fn func(elemLo, elemHi int64)) {
	if g != nil && !g.dead {
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
			for i, b := range g.order {
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
		if idx == 0 {
			g.order = g.order[1:]
		}
		g.buffered--
		if b.leaderRel >= b.elems {
			delete(g.bySeq, b.seq)
		} else {
			b.gone = true // keep for release accounting
		}
		if g.byAddr[b.addr] == b {
			delete(g.byAddr, b.addr)
		}
	}
}

// requestLeader serves the leader stream's element idx from the buffer.
// It returns false when the element cannot be served (core must fall back).
func (l *seL2) requestLeader(g *l2Group, idx int64, cb func(event.Cycle)) bool {
	if g == nil || g.dead {
		return false
	}
	seq, ok := g.elemSeq[idx]
	if !ok {
		if idx >= g.walker.nextElem {
			// Ahead of the credit window: the grant is guaranteed to come
			// as consumption advances, so park rather than fall back.
			g.pendingGrant[idx] = append(g.pendingGrant[idx], cb)
			return true
		}
		return false
	}
	b := g.bySeq[seq]
	if b == nil || b.gone {
		return false
	}
	l.serveLine(b, cb)
	return true
}

// requestByAddr serves a trailing offset-group member by address (the
// buffer is address-tagged, §IV-A).
func (l *seL2) requestByAddr(g *l2Group, addr uint64, cb func(event.Cycle)) bool {
	if g == nil || g.dead {
		return false
	}
	b := g.byAddr[addr&^(lineBytes-1)]
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
	if g == nil || g.dead {
		return false
	}
	states := g.ind[childSid]
	if states == nil {
		return false
	}
	st := states[idx]
	if st == nil {
		st = &indState{}
		states[idx] = st
	}
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
	if g.dead {
		return
	}
	states := g.ind[childSid]
	if states == nil {
		return
	}
	st := states[idx]
	if st == nil {
		st = &indState{}
		states[idx] = st
	}
	l.e.lay.St(l.tile).SEL2Accesses++
	st.arrived = true
	for _, w := range st.waiters {
		l.e.lay.Eng(l.tile).Schedule(2, w)
	}
	st.waiters = nil
}

// releaseIndirect retires a floated indirect element.
func (l *seL2) releaseIndirect(g *l2Group, childSid int, idx int64) {
	if states := g.ind[childSid]; states != nil {
		delete(states, idx)
	}
}

// releaseLeader retires a leader element; full lines advance the coarse
// credit flow control (§IV-A): when half the window has been consumed, a
// credit message tops the SE_L3 back up.
func (l *seL2) releaseLeader(g *l2Group, idx int64) {
	seq, ok := g.elemSeq[idx]
	if !ok {
		return
	}
	delete(g.elemSeq, idx)
	b := g.bySeq[seq]
	if b == nil {
		return
	}
	b.leaderRel++
	if b.leaderRel < b.elems {
		return
	}
	if b.gone {
		delete(g.bySeq, b.seq)
	}
	g.consumed++
	l.sanCheckCredits(g)
	if g.dead || g.consumed-g.lastCredit < int64(g.chunk) {
		return
	}
	g.lastCredit = g.consumed
	first := g.grantLines(g.chunk)
	l.sanCheckCredits(g)
	if first == nil {
		return // pattern fully granted; SE_L3 finishes on current credits
	}
	n := int(g.granted) // new absolute credit level
	l.e.sanTrace(l.tile, "sel2", "credit", sanStreamKey(g.key.tile, g.key.sid), g.granted, g.consumed)
	st := l.e.lay.St(l.tile)
	st.StreamCredits++
	st.TLBTranslations++
	bank := l.e.cfg.HomeBank(first.addr)
	key := g.key
	grantTo := n
	l.e.mesh.Send(l.tile, bank, stats.ClassStream, 8, func(event.Cycle) {
		// Registry lookup and credit state: barrier work.
		l.e.lay.Defer(bank, runAddCredits, &creditOp{e: l.e, key: key, level: grantTo})
	})
}

// terminate implements stream_end (and mid-phase sinking): pending waiters
// are served by fallback loads, SE_L3 state is torn down, and the buffer is
// reclaimed.
func (l *seL2) terminate(g *l2Group, sink bool) {
	if g == nil || g.dead {
		return
	}
	var sk int64
	if sink {
		sk = 1
	}
	l.e.sanTrace(l.tile, "sel2", "term", sanStreamKey(g.key.tile, g.key.sid), g.consumed, sk)
	g.dead = true
	delete(l.groups, g.key)
	// Serve anyone still waiting with plain loads so no request is lost.
	// These are maps, and fallback schedules events: drain in key order so
	// the simulation stays deterministic.
	for _, seq := range sortedKeys(g.bySeq) {
		b := g.bySeq[seq]
		for _, w := range b.waiters {
			l.e.cores[l.tile].fallback(b.addr, g.decl, w)
		}
		b.waiters = nil
	}
	for _, e := range sortedKeys(g.pendingGrant) {
		for _, w := range g.pendingGrant[e] {
			l.e.cores[l.tile].fallback(g.baseAff.AddrAt(e), g.decl, w)
		}
		delete(g.pendingGrant, e)
	}
	for _, sid := range sortedKeys(g.ind) {
		states := g.ind[sid]
		var child *stream.Decl
		for i := range g.children {
			if g.children[i].ID == sid {
				child = &g.children[i]
			}
		}
		for _, idx := range sortedKeys(states) {
			st := states[idx]
			for _, w := range st.waiters {
				v := l.e.bk.ReadU32(g.baseAff.AddrAt(idx))
				l.e.cores[l.tile].fallback(child.Indirect.AddrFor(uint64(v)), *child, w)
			}
			st.waiters = nil
		}
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
	if s == nil || s.dead {
		return
	}
	l.e.lay.St(l.tile).StreamEnds++
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
		if b := g.byAddr[lineAddr]; b != nil && !b.gone {
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
