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

// sanStreamKey tags a (tile, sid) stream for trace filtering. The high bit
// keeps stream keys disjoint from the line addresses and NoC keys other
// components trace under.
func sanStreamKey(tile, sid int) uint64 {
	return 1<<63 | uint64(tile)<<16 | uint64(sid)
}

// sanTrace appends one stream-engine trace record when probes are on.
func (e *Engines) sanTrace(tile int, comp, ev string, key uint64, a, b int64) {
	if e.san == nil {
		return
	}
	e.san.Trace(sanitize.Record{
		Cycle: uint64(e.lay.Eng(tile).Now()), Tile: tile, Comp: comp, Event: ev, Key: key, A: a, B: b,
	})
}

// sanCheckFIFO verifies the SEcore stream-FIFO bound after a prefetch
// frontier advance: held lines never exceed the allocated share.
func (c *seCore) sanCheckFIFO(s *coreStream) {
	if c.e.san == nil {
		return
	}
	if s.held > s.fifoCap {
		c.e.san.Failf(sanStreamKey(c.tile, s.decl.ID),
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
	key := sanStreamKey(c.tile, s.decl.ID)
	if s.sanServed != s.sanReq {
		c.e.san.Failf(key,
			"secore: tile %d stream %d reached stream_end with %d of %d requested elements served (kind %d)",
			c.tile, s.decl.ID, s.sanServed, s.sanReq, s.kind)
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
	if l.e.san == nil || g.dead {
		return
	}
	key := sanStreamKey(g.key.tile, g.key.sid)
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
	if l.e.san == nil || g.dead {
		return
	}
	key := sanStreamKey(g.key.tile, g.key.sid)
	live, pinned := 0, 0
	for _, b := range g.order {
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

// sanCheckWire verifies the Table I wire layout for a configuration packet
// being sent: the stream's fields must fit their bit slots, serialize to
// exactly the payload the NoC is charged for, and survive an
// encode -> decode -> re-encode round trip unchanged.
func (l *seL2) sanCheckWire(g *l2Group, startElem int64, payload int) {
	if l.e.san == nil {
		return
	}
	key := sanStreamKey(g.key.tile, g.key.sid)
	for i := 0; i < stream.Levels; i++ {
		if n := g.baseAff.Lens[i]; n < 0 || n > math.MaxUint32 {
			l.e.san.Failf(key, "sel2: tile %d stream %d level-%d length %d exceeds the 32-bit Table I field",
				l.tile, g.key.sid, i, n)
		}
	}
	pkt := l.wirePacket(g, startElem)
	data, err := pkt.Encode()
	if err != nil {
		l.e.san.Failf(key, "sel2: tile %d stream %d configuration does not fit the Table I layout: %v",
			l.tile, g.key.sid, err)
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
}

// sanCheckIssue verifies SE_L3 credit discipline after a line issue: a
// stream never issues beyond its granted credit level.
func (b *seL3) sanCheckIssue(m *l3Stream) {
	if b.e.san == nil {
		return
	}
	if m.issued > int64(m.creditLevel) {
		b.e.san.Failf(sanStreamKey(m.key.tile, m.key.sid),
			"sel3: bank %d stream (tile %d, sid %d) issued line %d beyond credit level %d",
			b.bank, m.key.tile, m.key.sid, m.issued, m.creditLevel)
	}
}

// Audit verifies the engines' drained end-of-run state: no floated stream
// is still registered, no SE_L2 group survived its stream_end, and no
// SE_L3 bank holds live streams or queued indirect work. No-op without a
// checker; call only after the event queue has drained.
func (e *Engines) Audit() {
	if e.san == nil {
		return
	}
	for key, s := range e.registry {
		e.san.Failf(sanStreamKey(key.tile, key.sid),
			"sel3: stream (tile %d, sid %d, gen %d) still registered at bank %d after run completed (issued %d, credits %d)",
			key.tile, key.sid, key.gen, s.curBank, s.issued, s.creditLevel)
	}
	for tile, l2 := range e.l2s {
		for key, g := range l2.groups {
			e.san.Failf(sanStreamKey(key.tile, key.sid),
				"sel2: tile %d stream %d group leaked past stream_end (granted %d, consumed %d, buffered %d)",
				tile, key.sid, g.granted, g.consumed, g.buffered)
		}
	}
	for bank, l3 := range e.l3s {
		if n := len(l3.indQ); n != 0 {
			e.san.Failf(0, "sel3: bank %d finished the run with %d queued indirect issues", bank, n)
		}
		for _, cg := range l3.groups {
			if live := len(cg.alive()); live != 0 {
				m := cg.members[0]
				e.san.Failf(sanStreamKey(m.key.tile, m.key.sid),
					"sel3: bank %d confluence group still has %d live streams after run completed", bank, live)
			}
		}
	}
}
