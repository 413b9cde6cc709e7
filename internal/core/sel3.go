package core

import (
	"sync/atomic"

	"streamfloat/internal/cache"
	"streamfloat/internal/event"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// l3Stream is one floated stream executing at an SE_L3 (Fig 10). A stream
// walks its line program in order, spending one credit per line; when the
// next line maps to another bank the stream migrates there.
type l3Stream struct {
	lifeRec
	reqTile  int
	group    *l2Group // destination buffer at the requesting tile
	pat      stream.Affine
	children []stream.Decl

	walker  lineWalker
	pending *lineRef // next line to issue (nil when exhausted); points at next
	next    lineRef

	creditLevel int   // absolute credits granted (lines)
	issued      int64 // lines issued
	lastPage    uint64

	conf    *confGroup
	curBank int

	eng *Engines
}

// addCredits raises the absolute credit level (called on credit-message
// delivery) and wakes the stream's bank.
func (s *l3Stream) addCredits(level int) {
	if s.eng.san != nil && s.group.live() && int64(level) > s.group.granted {
		s.eng.san.Failf(s.key.tag(),
			"sel3: stream (tile %d, sid %d) received credit level %d beyond the SE_L2 grant frontier %d",
			s.key.tile, s.key.sid, level, s.group.granted)
	}
	if level > s.creditLevel {
		s.creditLevel = level
	}
	if s.state != ended {
		s.eng.l3s[s.curBank].wake()
	}
}

// hasCredit reports whether the stream may issue its next line.
func (s *l3Stream) hasCredit() bool { return s.issued < int64(s.creditLevel) }

// terminate tears the stream down (stream_end, sink, or its line program
// ran out) and removes it from the registry. The registry is barrier-owned,
// so a stream dying inside its bank's window defers the removal (terminate
// may also run from barrier context, where appending to the op log is
// equally safe).
func (s *l3Stream) terminate() {
	if s.state == ended {
		return
	}
	s.eng.edge(edRetire, s.curBank, 0, 0, 0, nil, &s.lifeRec)
	s.pending = nil
	s.eng.lay.Defer(s.curBank, runUnregister, s)
}

// advance pops the next line of the stream's program.
func (s *l3Stream) advance() {
	if ref, ok := s.walker.next(); ok {
		s.next = ref
		s.pending = &s.next
	} else {
		s.terminate()
	}
}

// confGroup is a set of merged streams with identical patterns from the
// same tile block (§IV-C); it issues one request per line and multicasts
// the response to every member at that position.
type confGroup struct {
	e       *Engines
	members []*l3Stream
}

// alive returns the members still running, reaping any whose requesting-side
// buffer has been torn down. It runs bank-side, so it reads the group's
// barrier-published deadR rather than the requesting tile's live state.
func (g *confGroup) alive() []*l3Stream {
	out := g.members[:0]
	for _, m := range g.members {
		if m.group.deadR {
			m.terminate()
		}
		if m.state != ended {
			out = append(out, m)
		}
	}
	g.members = out
	return out
}

// seL3 is the per-bank L3 stream engine: configure, issue (round-robin,
// one request per cycle), migrate and merge units.
type seL3 struct {
	e       *Engines
	bank    int
	groups  []*confGroup
	rr      int
	ticking bool
	indQ    event.Queue[indReq]

	cands []*l3Stream // scratch: the members tryIssue serves
	recs  [4]*lifeRec // scratch: the members migrate sends on (a group has at most 4)
}

func newSEL3(e *Engines, bank int) *seL3 {
	return &seL3{e: e, bank: bank, cands: make([]*l3Stream, 0, 4)}
}

// addStream installs a newly configured stream at this bank: the merge unit
// first tries to join an existing confluence group (§IV-C).
func (b *seL3) addStream(g *l2Group, startElem int64, startSeq int64, credits int) {
	if !g.live() {
		// The stream was ended (or sunk) while this configuration packet
		// was in flight; drop it.
		return
	}
	s := &l3Stream{
		lifeRec: lifeRec{key: g.key, state: floated}, reqTile: g.key.tile, group: g,
		pat: g.baseAff, children: g.children,
		walker:      newLineWalker(g.baseAff),
		creditLevel: credits,
		issued:      startSeq,
		curBank:     b.bank,
		eng:         b.e,
	}
	for s.walker.nextElem < startElem {
		if _, ok := s.walker.next(); !ok {
			break
		}
	}
	s.advance()
	if s.pending == nil {
		return // empty stream
	}
	b.e.register(s)
	b.install(s)
	b.wake()
}

// install places a stream into a confluence group or a fresh solo group.
func (b *seL3) install(s *l3Stream) {
	const mergeSlack = 64
	if b.e.cfg.FloatConfluence && len(s.children) == 0 {
		bx, by := b.e.blockOf(s.reqTile)
		for _, cg := range b.groups {
			ms := cg.alive()
			if len(ms) == 0 || len(ms) >= 4 {
				continue
			}
			m := ms[0]
			if len(m.children) != 0 || !m.pat.Equal(s.pat) || m.pending == nil {
				continue
			}
			ox, oy := b.e.blockOf(m.reqTile)
			if ox != bx || oy != by {
				continue
			}
			diff := m.pending.seq - s.pending.seq
			if diff > mergeSlack || diff < -mergeSlack {
				continue
			}
			cg.members = append(cg.members, s)
			s.conf = cg
			b.e.lay.St(b.bank).ConfluenceGroups++
			return
		}
	}
	cg := &confGroup{e: b.e, members: []*l3Stream{s}}
	s.conf = cg
	b.groups = append(b.groups, cg)
}

// runThunk and runL3Tick are fixed-payload event handlers: scheduling them
// allocates nothing, unlike a per-call closure or method value.
func runThunk(_ event.Cycle, ref event.Ref) { ref.Obj.(func())() }

func runL3Tick(now event.Cycle, ref event.Ref) { ref.Obj.(*seL3).tick(now) }

// wake starts the issue loop if it is idle.
func (b *seL3) wake() {
	if b.ticking {
		return
	}
	b.ticking = true
	b.e.lay.Eng(b.bank).ScheduleCall(1, runL3Tick, event.Ref{Obj: b})
}

// tick is the issue unit: one request per cycle, round-robin across
// confluence groups, with pending indirect requests sharing the port.
func (b *seL3) tick(event.Cycle) {
	if b.indQ.Len() > 0 {
		b.indQ.Pop().issue()
		b.e.lay.Eng(b.bank).ScheduleCall(1, runL3Tick, event.Ref{Obj: b})
		return
	}
	// Prune finished groups.
	live := b.groups[:0]
	for _, g := range b.groups {
		if len(g.alive()) > 0 {
			live = append(live, g)
		}
	}
	b.groups = live
	n := len(b.groups)
	for k := 0; k < n; k++ {
		g := b.groups[(b.rr+k)%n]
		if b.tryIssue(g) {
			b.rr = (b.rr + k + 1) % max(1, len(b.groups))
			b.e.lay.Eng(b.bank).ScheduleCall(1, runL3Tick, event.Ref{Obj: b})
			return
		}
	}
	b.ticking = false
}

// tryIssue attempts to issue the group's lowest outstanding line. The issue
// unit deliberately serves the least-advanced members first so lagging
// streams catch up and form full multicast requests (§IV-C).
func (b *seL3) tryIssue(g *confGroup) bool {
	members := g.alive()
	if len(members) == 0 {
		return false
	}
	// Find the minimum pending seq.
	var minSeq int64 = 1<<62 - 1
	aligned := true
	for _, m := range members {
		if m.pending == nil {
			continue
		}
		if m.pending.seq < minSeq {
			minSeq = m.pending.seq
		}
	}
	cands := b.cands[:0]
	for _, m := range members {
		if m.pending == nil {
			continue
		}
		if m.pending.seq != minSeq {
			aligned = false
			continue
		}
		if m.hasCredit() {
			cands = append(cands, m)
		} else {
			aligned = false
		}
	}
	b.cands = cands
	if len(cands) == 0 {
		return false
	}
	ref := *cands[0].pending
	home := b.e.sys.HomeBank(ref.addr)
	if home != b.bank && aligned && len(cands) == len(members) {
		// The whole group has crossed the interleaving boundary: migrate.
		b.migrate(g, home)
		return true
	}

	kind := stats.L3FloatAffine
	if len(cands) > 1 {
		kind = stats.L3FloatConfluence
	}
	req := b.getReq()
	req.seq, req.home = ref.seq, home
	for _, m := range cands {
		req.members = append(req.members, m)
		req.dsts = append(req.dsts, m.reqTile)
	}
	b.e.lay.St(b.bank).SEL3Accesses++
	if b.e.tr != nil {
		m0 := cands[0]
		b.e.tr.Emit(uint64(b.e.lay.Eng(b.bank).Now()), b.bank, trace.KindSEL3Issue,
			m0.key.tag(), ref.seq, int64(len(cands)))
	}
	if ref.addr>>12 != cands[0].lastPage {
		b.e.lay.St(b.bank).TLBTranslations++
	}
	// Indirect children chain off the index data once it is available at
	// the bank (never under confluence: indirect streams do not merge).
	var onBank func(event.Cycle)
	if len(cands) == 1 && len(cands[0].children) > 0 {
		req.ref = ref
		onBank = req.readyFn
	}
	req.pending.Store(int32(len(req.dsts)))
	if onBank != nil {
		req.pending.Add(1)
	}
	for _, m := range cands {
		m.lastPage = ref.addr >> 12
		m.issued++
		b.sanCheckIssue(m)
		m.advance()
	}
	clear(b.cands)
	b.e.sys.FloatReadAuto(b.bank, ref.addr, req.dsts, kind, stream.LineBytes, onBank, req.deliverFn)
	return true
}

// l3Req is one line request an SE_L3 issues for a (possibly merged) stream
// group, from issue to its last delivery: it maps each destination tile back
// to the member stream the line is for and, for a stream with indirect
// children, queues their accesses once the data is at the bank. Its
// deliveries land at several tiles, on several shards at once, so an atomic
// count of the callbacks still due decides which context returns it.
type l3Req struct {
	b       *seL3
	seq     int64
	home    int     // the line's home bank, where the ready hook fires
	ref     lineRef // with indirect children: the line whose elements they chain on
	members []*l3Stream
	dsts    []int
	pending atomic.Int32

	readyFn   func(event.Cycle)      // FloatReadAuto onBankReady, bound once
	deliverFn func(int, event.Cycle) // FloatReadAuto deliver, bound once
}

func (b *seL3) getReq() *l3Req {
	r := b.e.lists(b.bank).req.Get()
	if r == nil {
		// A confluence group has at most four members.
		r = &l3Req{members: make([]*l3Stream, 0, 4), dsts: make([]int, 0, 4)}
		r.readyFn, r.deliverFn = r.ready, r.deliver
	}
	r.b = b
	return r
}

// done counts one callback; the last returns r to the list of the tile
// whose context is running.
func (r *l3Req) done(tile int) {
	if r.pending.Add(-1) != 0 {
		return
	}
	e := r.b.e
	clear(r.members)
	*r = l3Req{members: r.members[:0], dsts: r.dsts[:0], readyFn: r.readyFn, deliverFn: r.deliverFn}
	e.lists(tile).req.Put(r)
}

// ready queues the indirect children of the request's only member once the
// line is at the bank (bound as readyFn).
func (r *l3Req) ready(event.Cycle) {
	r.b.queueIndirect(r.members[0], r.ref)
	r.done(r.home)
}

// deliver lands the line at one destination tile's SE_L2 (bound as
// deliverFn). It runs at that tile, the group's own, so it reads the live
// state, not the deadR mirror. Should two members share a tile, the
// later one is served, as the seed's tile-keyed lookup did.
func (r *l3Req) deliver(dst int, _ event.Cycle) {
	var m *l3Stream
	for _, c := range r.members {
		if c.reqTile == dst {
			m = c
		}
	}
	if m != nil && m.group.live() {
		r.b.e.l2s[dst].arrive(m.group, r.seq)
	}
	r.done(dst)
}

// indReq is one dependent access of an indirect child, queued at the bank
// running its base stream until the issue port takes it, then carried by
// the subline read to the requesting tile.
type indReq struct {
	b     *seL3
	m     *l3Stream
	child *stream.Decl
	e     int64

	deliverFn func(int, event.Cycle) // FloatIndirectRead deliver, bound once
}

func (r *indReq) put(tile int) {
	e := r.b.e
	*r = indReq{deliverFn: r.deliverFn}
	e.lists(tile).indReq.Put(r)
}

// queueIndirect schedules the dependent accesses of an affine line's
// elements: once the index data is available at the bank, each element's
// indirect address is computed in the operands table and a subline request
// is sent to its home bank (§IV-B).
func (b *seL3) queueIndirect(m *l3Stream, ref lineRef) {
	lists := b.e.lists(b.bank)
	for e := ref.elemLo; e <= ref.elemHi; e++ {
		for ci := range m.children {
			r := lists.indReq.Get()
			if r == nil {
				r = new(indReq)
				r.deliverFn = r.deliver
			}
			r.b, r.m, r.child, r.e = b, m, &m.children[ci], e
			b.indQ.Push(r)
		}
	}
	b.wake()
}

// issue sends the element's subline request from the issue port. A stream
// whose affine walk has ended still issues them; only a torn-down requesting
// buffer cancels the dependent accesses. This runs bank-side: deadR.
func (r *indReq) issue() {
	b, m := r.b, r.m
	if m.group.deadR {
		r.put(b.bank)
		return
	}
	v := b.e.bk.ReadU32(m.pat.AddrAt(r.e))
	addr := r.child.Indirect.AddrFor(uint64(v))
	payload := int(r.child.Indirect.WBytes)
	st := b.e.lay.St(b.bank)
	if payload < stream.LineBytes {
		st.SublineResponses++
	}
	st.TLBTranslations++
	st.SEL3Accesses++
	b.e.sys.FloatIndirectRead(b.bank, cache.LineAddr(addr), m.reqTile, payload, r.deliverFn)
}

// deliver lands the subline at the requesting tile (bound as deliverFn).
func (r *indReq) deliver(dst int, _ event.Cycle) {
	r.b.e.l2s[dst].indirectArrive(r.m.group, r.child.ID, r.e)
	r.put(dst)
}

// migrate moves a whole group to the bank owning its next line (§IV-A):
// one migration packet carries the stream configuration, current iteration
// and remaining credits.
func (b *seL3) migrate(g *confGroup, toBank int) {
	// Remove from this bank.
	for i, cg := range b.groups {
		if cg == g {
			b.groups = append(b.groups[:i], b.groups[i+1:]...)
			break
		}
	}
	members := g.alive()
	if len(members) == 0 {
		return
	}
	// One packet carries the full stream configuration plus the current
	// iteration and remaining credits; merged members add an id each.
	payload := stream.ConfigBytes(len(members[0].children)) + 8*len(members)
	recs := b.recs[:0]
	for _, m := range members {
		recs = append(recs, &m.lifeRec)
	}
	b.e.edge(edMigrate, b.bank, int64(b.bank), int64(toBank), 0, nil, recs...)
	clear(recs)
	b.e.mesh.SendCall(b.bank, toBank, stats.ClassStream, payload, runMigrated, event.Ref{Obj: g, A: int64(toBank)})
}

// runMigrated lands a migration packet at the group's new bank (Ref.A).
func runMigrated(_ event.Cycle, ref event.Ref) {
	g, toBank := ref.Obj.(*confGroup), int(ref.A)
	tb := g.e.l3s[toBank]
	// Re-home every member before alive() can reap any (a reaped member's
	// deferred retire must queue at the bank now running it).
	for _, m := range g.members {
		if m.state == migrating {
			m.curBank = toBank
			g.e.edge(edLand, toBank, 0, 0, 0, nil, &m.lifeRec)
		}
	}
	g.alive()
	tb.acceptGroup(g)
	tb.wake()
}

// acceptGroup installs a migrating group at this bank, first letting the
// merge unit coalesce it with a resident group of identical pattern and
// progress (confluence can form at any bank as streams chase each other).
func (b *seL3) acceptGroup(g *confGroup) {
	const mergeSlack = 64
	members := g.alive()
	if b.e.cfg.FloatConfluence && len(members) > 0 && len(members[0].children) == 0 {
		in := members[0]
		bx, by := b.e.blockOf(in.reqTile)
		for _, cg := range b.groups {
			ms := cg.alive()
			if len(ms) == 0 || len(ms)+len(members) > 4 {
				continue
			}
			m := ms[0]
			if len(m.children) != 0 || m.pending == nil || in.pending == nil ||
				!m.pat.Equal(in.pat) {
				continue
			}
			ox, oy := b.e.blockOf(m.reqTile)
			if ox != bx || oy != by {
				continue
			}
			diff := m.pending.seq - in.pending.seq
			if diff > mergeSlack || diff < -mergeSlack {
				continue
			}
			cg.members = append(cg.members, members...)
			for _, mm := range members {
				mm.conf = cg
				b.e.lay.St(b.bank).ConfluenceGroups++
			}
			return
		}
	}
	b.groups = append(b.groups, g)
}
