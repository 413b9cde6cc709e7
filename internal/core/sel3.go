package core

import (
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
	key      streamKey
	reqTile  int
	group    *l2Group // destination buffer at the requesting tile
	pat      stream.Affine
	children []stream.Decl

	walker  *lineWalker
	pending *lineRef // next line to issue (nil when exhausted)

	creditLevel int   // absolute credits granted (lines)
	issued      int64 // lines issued
	lastPage    uint64

	// Accessed-range registers for stream-grain coherence (§V-B): the
	// base/bound of lines this stream has read so far. A remote write
	// inside the range invalidates the stream.
	rangeLo, rangeHi uint64

	conf    *confGroup
	curBank int
	dead    bool

	eng *Engines
}

// addCredits raises the absolute credit level (called on credit-message
// delivery) and wakes the stream's bank.
func (s *l3Stream) addCredits(level int) {
	if s.eng.san != nil && s.group != nil && !s.group.dead && int64(level) > s.group.granted {
		s.eng.san.Failf(sanStreamKey(s.key.tile, s.key.sid),
			"sel3: stream (tile %d, sid %d) received credit level %d beyond the SE_L2 grant frontier %d",
			s.key.tile, s.key.sid, level, s.group.granted)
	}
	if level > s.creditLevel {
		s.creditLevel = level
	}
	if !s.dead {
		s.eng.l3s[s.curBank].wake()
	}
}

// hasCredit reports whether the stream may issue its next line.
func (s *l3Stream) hasCredit() bool { return s.issued < int64(s.creditLevel) }

// terminate tears the stream down (stream_end or sink).
func (s *l3Stream) terminate() {
	if s.dead {
		return
	}
	s.dead = true
	s.pending = nil
	s.retire()
}

// advance pops the next line of the stream's program.
func (s *l3Stream) advance() {
	if ref, ok := s.walker.next(); ok {
		r := ref
		s.pending = &r
	} else {
		s.pending = nil
		s.dead = true
		s.retire()
	}
}

// retire removes a finished stream from the registry. The registry is
// barrier-owned, so a stream dying inside its bank's window defers the
// removal (retire may also run from barrier context, where appending to the
// op log is equally safe).
func (s *l3Stream) retire() {
	s.eng.lay.Defer(s.curBank, runUnregister, s)
}

// confGroup is a set of merged streams with identical patterns from the
// same tile block (§IV-C); it issues one request per line and multicasts
// the response to every member at that position.
type confGroup struct {
	members []*l3Stream
}

// alive returns the members still running, reaping any whose requesting-side
// buffer has been torn down. It runs bank-side, so it reads the group's
// barrier-published deadR rather than the requesting tile's live dead flag.
func (g *confGroup) alive() []*l3Stream {
	out := g.members[:0]
	for _, m := range g.members {
		if !m.dead && m.group.deadR {
			m.terminate()
		}
		if !m.dead {
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
	indQ    []func()
}

func newSEL3(e *Engines, bank int) *seL3 {
	return &seL3{e: e, bank: bank}
}

// addStream installs a newly configured stream at this bank: the merge unit
// first tries to join an existing confluence group (§IV-C).
func (b *seL3) addStream(g *l2Group, startElem int64, startSeq int64, credits int) {
	if g.dead {
		// The stream was ended (or sunk) while this configuration packet
		// was in flight; drop it.
		return
	}
	s := &l3Stream{
		key: g.key, reqTile: g.key.tile, group: g,
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
	cg := &confGroup{members: []*l3Stream{s}}
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
	if len(b.indQ) > 0 {
		issue := b.indQ[0]
		b.indQ = b.indQ[1:]
		issue()
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
	var cands []*l3Stream
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
	if len(cands) == 0 {
		return false
	}
	ref := *cands[0].pending
	home := b.e.cfg.HomeBank(ref.addr)
	if home != b.bank && aligned && len(cands) == len(members) {
		// The whole group has crossed the interleaving boundary: migrate.
		b.migrate(g, home)
		return true
	}

	kind := stats.L3FloatAffine
	if len(cands) > 1 {
		kind = stats.L3FloatConfluence
	}
	dsts := make([]int, len(cands))
	for i, m := range cands {
		dsts[i] = m.reqTile
	}
	b.e.lay.St(b.bank).SEL3Accesses++
	if b.e.tr != nil {
		m0 := cands[0]
		b.e.tr.Emit(uint64(b.e.lay.Eng(b.bank).Now()), b.bank, trace.KindSEL3Issue,
			trace.StreamKey(m0.key.tile, m0.key.sid), ref.seq, int64(len(cands)))
	}
	if ref.addr>>12 != cands[0].lastPage {
		b.e.lay.St(b.bank).TLBTranslations++
	}
	// Indirect children chain off the index data once it is available at
	// the bank (never under confluence: indirect streams do not merge).
	var onBank func(event.Cycle)
	if len(cands) == 1 && len(cands[0].children) > 0 {
		m := cands[0]
		r := ref
		onBank = func(event.Cycle) { b.queueIndirect(m, r) }
	}
	for _, m := range cands {
		m.lastPage = ref.addr >> 12
		m.issued++
		b.sanCheckIssue(m)
		if m.rangeLo == 0 || ref.addr < m.rangeLo {
			m.rangeLo = ref.addr
		}
		if ref.addr+lineBytes > m.rangeHi {
			m.rangeHi = ref.addr + lineBytes
		}
		m.advance()
	}
	// Map each destination back to its member for delivery.
	byTile := make(map[int]*l3Stream, len(cands))
	for _, m := range cands {
		byTile[m.reqTile] = m
	}
	seq := ref.seq
	// The delivery callback runs at each destination tile (the group's own
	// tile), so it reads the live dead flag, not the deadR mirror.
	b.e.sys.FloatReadAuto(b.bank, ref.addr, dsts, kind, lineBytes, onBank,
		func(dst int, _ event.Cycle) {
			if m := byTile[dst]; m != nil && !m.group.dead {
				b.e.l2s[dst].arrive(m.group, seq)
			}
		})
	return true
}

// queueIndirect schedules the dependent accesses of an affine line's
// elements: once the index data is available at the bank, each element's
// indirect address is computed in the operands table and a subline request
// is sent to its home bank (§IV-B).
func (b *seL3) queueIndirect(m *l3Stream, ref lineRef) {
	for e := ref.elemLo; e <= ref.elemHi; e++ {
		e := e
		for ci := range m.children {
			child := m.children[ci]
			b.indQ = append(b.indQ, func() {
				// m.dead alone is fine (normal completion of the affine
				// walk); only a torn-down requesting buffer cancels the
				// dependent accesses. This thunk runs bank-side: deadR.
				if m.group.deadR {
					return
				}
				v := b.e.bk.ReadU32(m.pat.AddrAt(e))
				addr := child.Indirect.AddrFor(uint64(v))
				payload := int(child.Indirect.WBytes)
				st := b.e.lay.St(b.bank)
				if payload < 64 {
					st.SublineResponses++
				}
				st.TLBTranslations++
				st.SEL3Accesses++
				grp, sid := m.group, child.ID
				dst := m.reqTile
				b.e.sys.FloatIndirectRead(b.bank, cache.LineAddr(addr), dst, payload,
					func(event.Cycle) { b.e.l2s[dst].indirectArrive(grp, sid, e) })
			})
		}
	}
	b.wake()
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
	b.e.lay.St(b.bank).StreamMigrations++
	if b.e.tr != nil {
		now := uint64(b.e.lay.Eng(b.bank).Now())
		for _, m := range members {
			b.e.tr.StreamMigrate(now, m.key.tile, m.key.sid, b.bank, toBank)
		}
	}
	b.e.mesh.Send(b.bank, toBank, stats.ClassStream, payload, func(event.Cycle) {
		tb := b.e.l3s[toBank]
		// Re-home every member before alive() can reap any (a reaped
		// member's deferred retire must queue at the bank now running it).
		for _, m := range g.members {
			if !m.dead {
				m.curBank = toBank
			}
		}
		g.alive()
		tb.acceptGroup(g)
		tb.wake()
	})
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
