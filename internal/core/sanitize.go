package core

import (
	"math"
	"reflect"

	"streamfloat/internal/sanitize"
	"streamfloat/internal/stream"
)

// SetChecker attaches sanitizer probes to every stream engine: SEcore FIFO
// bounds and element conservation, SE_L2 credit-window and buffer-bound
// invariants, SE_L3 credit discipline, and end-of-run leak audits. nil
// detaches.
func (e *Engines) SetChecker(chk *sanitize.Checker) { e.san = chk }

// sanCheckFIFO verifies the SEcore stream-FIFO bound after a prefetch
// frontier advance: held lines never exceed the allocated share.
func (c *seCore) sanCheckFIFO(s *coreStream) {
	if c.e.san == nil {
		return
	}
	if s.held > s.fifoCap {
		c.e.san.Failf(s.key.tag(),
			"secore: tile %d stream %d FIFO holds %d lines, capacity %d",
			c.tile, s.decl.ID, s.held, s.fifoCap)
	}
}

// sanCheckElements verifies element conservation for one stream at
// stream_end: every requested element was served, and no more elements
// were retired than requested.
func (c *seCore) sanCheckElements(s *coreStream) {
	if c.e.san == nil {
		return
	}
	key := s.key.tag()
	if s.sanServed != s.sanReq {
		c.e.san.Failf(key,
			"secore: tile %d stream %d reached stream_end with %d of %d requested elements served (state %d)",
			c.tile, s.decl.ID, s.sanServed, s.sanReq, s.state)
	}
	if s.sanRel > s.sanReq {
		c.e.san.Failf(key,
			"secore: tile %d stream %d retired %d elements but only %d were requested",
			c.tile, s.decl.ID, s.sanRel, s.sanReq)
	}
}

// sanCheckCredits verifies the SE_L2 credit-flow conservation law: credits
// consumed never outrun credits granted, and the outstanding window
// (granted - consumed) never exceeds the stream's buffer share.
func (l *seL2) sanCheckCredits(g *l2Group) {
	if l.e.san == nil || !g.live() {
		return
	}
	key := g.key.tag()
	if g.consumed > g.granted {
		l.e.san.Failf(key,
			"sel2: tile %d stream %d consumed %d credits with only %d granted",
			l.tile, g.key.sid, g.consumed, g.granted)
	}
	if out := g.granted - g.consumed; out > int64(g.cap) {
		l.e.san.Failf(key,
			"sel2: tile %d stream %d credit window %d (granted %d - consumed %d) exceeds buffer share %d",
			l.tile, g.key.sid, out, g.granted, g.consumed, g.cap)
	}
}

// sanCheckBuffer verifies the SE_L2 buffer bound right after eviction ran:
// the buffered count matches the live entries of the arrival order, and an
// overrun beyond the share is only tolerated while every remaining line is
// pinned by waiters.
func (l *seL2) sanCheckBuffer(g *l2Group) {
	if l.e.san == nil || !g.live() {
		return
	}
	key := g.key.tag()
	live, pinned := 0, 0
	for _, b := range g.order[g.orderHead:] {
		if b == nil {
			continue
		}
		live++
		if len(b.waiters) > 0 {
			pinned++
		}
	}
	if live != g.buffered {
		l.e.san.Failf(key,
			"sel2: tile %d stream %d buffered count %d drifted from %d live order entries",
			l.tile, g.key.sid, g.buffered, live)
	}
	if g.buffered > g.cap && pinned != live {
		l.e.san.Failf(key,
			"sel2: tile %d stream %d buffer overran its share (%d > %d) with %d evictable lines present",
			l.tile, g.key.sid, g.buffered, g.cap, live-pinned)
	}
}

// wire encodes the configuration packet being sent, for the config edge's
// span, when a tracer or the sanitizer is attached (nil otherwise, or when
// it does not encode), and checks it when the sanitizer is.
func (l *seL2) wire(g *l2Group, startElem int64, payload int) []byte {
	if l.e.san == nil && l.e.tr == nil {
		return nil
	}
	pkt := l.wirePacket(g, startElem)
	data, err := pkt.Encode()
	if l.e.san != nil {
		l.sanCheckWire(g, startElem, payload, pkt, data, err)
	}
	if err != nil {
		return nil // unencodable configs are the sanitizer's problem
	}
	return data
}

// sanCheckWire verifies the Table I wire layout of a configuration packet
// being sent (pkt, encoded as data or failing with encErr): the stream's
// fields must fit their bit slots, serialize to exactly the payload the NoC
// is charged for, survive an encode -> decode -> re-encode round trip
// unchanged, and name, walked from the decoded Iter, the first address the
// SE_L2 hands off.
func (l *seL2) sanCheckWire(g *l2Group, startElem int64, payload int, pkt stream.ConfigPacket, data []byte, encErr error) {
	key := g.key.tag()
	for i := 0; i < stream.Levels; i++ {
		if n := g.baseAff.Lens[i]; n < 0 || n > math.MaxUint32 {
			l.e.san.Failf(key, "sel2: tile %d stream %d level-%d length %d exceeds the 32-bit Table I field",
				l.tile, g.key.sid, i, n)
		}
	}
	if s := g.baseAff.Start; s < 0 || g.baseAff.NumElems() <= 0 {
		l.e.san.Failf(key, "sel2: tile %d stream %d start element %d lies outside its %d-element nest",
			l.tile, g.key.sid, s, s+g.baseAff.NumElems())
	}
	if encErr != nil {
		l.e.san.Failf(key, "sel2: tile %d stream %d configuration does not fit the Table I layout: %v",
			l.tile, g.key.sid, encErr)
	}
	if len(data) != payload {
		l.e.san.Failf(key, "sel2: tile %d stream %d config packet is %d bytes but the NoC was charged %d",
			l.tile, g.key.sid, len(data), payload)
	}
	back, err := stream.DecodeConfig(data)
	if err != nil {
		l.e.san.Failf(key, "sel2: tile %d stream %d config packet failed to decode: %v", l.tile, g.key.sid, err)
	}
	if !reflect.DeepEqual(pkt, back) {
		l.e.san.Failf(key, "sel2: tile %d stream %d config packet round trip mismatch: sent %+v, decoded %+v",
			l.tile, g.key.sid, pkt, back)
	}
	if err != nil {
		return
	}
	if got, want := back.Affine.Pattern().AddrAt(0), g.baseAff.AddrAt(startElem); got != want {
		l.e.san.Failf(key, "sel2: tile %d stream %d config packet starts at %#x, but element %d is at %#x",
			l.tile, g.key.sid, got, startElem, want)
	}
}

// sanCheckIssue verifies SE_L3 credit discipline after a line issue: a
// stream never issues beyond its granted credit level.
func (b *seL3) sanCheckIssue(m *l3Stream) {
	if b.e.san == nil {
		return
	}
	if m.issued > int64(m.creditLevel) {
		b.e.san.Failf(m.key.tag(),
			"sel3: bank %d stream (tile %d, sid %d) issued line %d beyond credit level %d",
			b.bank, m.key.tile, m.key.sid, m.issued, m.creditLevel)
	}
}

// Audit verifies the engines' drained end-of-run state: no floated stream
// is still registered, no SE_L2 group survived its stream_end, no SE_L3
// bank holds live streams or queued indirect work, and every per-request
// record (line requests, indirect requests, credit messages) is back on a
// freelist. No-op without a checker; call only after the event queue has
// drained.
func (e *Engines) Audit() {
	if e.san == nil {
		return
	}
	var req, ind, credit int
	for i := range e.ops {
		req += e.ops[i].req.Out()
		ind += e.ops[i].indReq.Out()
		credit += e.ops[i].credit.Out()
	}
	if req != 0 || ind != 0 || credit != 0 {
		e.san.Failf(0, "core: run drained with records outstanding: %d l3Req, %d indReq, %d creditOp", req, ind, credit)
	}
	for key, s := range e.registry {
		e.san.Failf(key.tag(),
			"sel3: stream (tile %d, sid %d, gen %d) still registered at bank %d after run completed (issued %d, credits %d)",
			key.tile, key.sid, key.gen, s.curBank, s.issued, s.creditLevel)
	}
	for tile, l2 := range e.l2s {
		for _, g := range l2.groups {
			e.san.Failf(g.key.tag(),
				"sel2: tile %d stream %d group leaked past stream_end (granted %d, consumed %d, buffered %d)",
				tile, g.key.sid, g.granted, g.consumed, g.buffered)
		}
	}
	for bank, l3 := range e.l3s {
		if n := l3.indQ.Len(); n != 0 {
			e.san.Failf(0, "sel3: bank %d finished the run with %d queued indirect issues", bank, n)
		}
		for _, cg := range l3.groups {
			if live := len(cg.alive()); live != 0 {
				m := cg.members[0]
				e.san.Failf(m.key.tag(),
					"sel3: bank %d confluence group still has %d live streams after run completed", bank, live)
			}
		}
	}
}
