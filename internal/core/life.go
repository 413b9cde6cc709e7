package core

import (
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// A stream's life, stated once. Each stream record (SEcore's coreStream,
// SE_L2's l2Group, SE_L3's l3Stream) embeds a lifeRec, and every change of
// its state is one edge of the table below, fired through Engines.edge. An
// edge's row names everything it does besides the state change: the Stats
// counter, the sanitizer record and the tracer span. DESIGN.md's "Stream
// lifecycle" table is this table in prose.

// life is where a stream record stands.
type life uint8

const (
	atCore    life = iota // configured: SEcore serves it (an SE_L2 group: no packet sent yet)
	floated               // SE_L2 buffers it and an SE_L3 bank runs it
	migrating             // its SE_L3 state is in a migration packet between banks
	sunk                  // SEcore undid the float mid-phase (§IV-D)
	ended                 // stream_end, or its SE_L3 line program ran out
)

// lifeRec is the part of a stream record the edges act on. key's gen is 0
// at SEcore, which has one record per (tile, sid) and phase.
type lifeRec struct {
	key   streamKey
	state life
}

// tag is the stream's key in sanitizer records and tracer events.
func (k streamKey) tag() uint64 { return trace.StreamKey(k.tile, k.sid) }

// edge names one transition of a stream's life.
type edge uint8

const (
	edFloat   edge = iota // SEcore offloads the stream (§IV-D policy)
	edConfig              // SE_L2 sends the Table I configuration packet to bank b (§IV-A)
	edMigrate             // SE_L3 sends the stream, with its confluence group, to the next bank
	edLand                // the migration packet reaches that bank
	edSink                // SEcore undoes the float: aliasing store or private hits (§IV-D)
	edEnd                 // stream_end at SEcore
	edRelease             // SE_L2 frees the buffer after a sink or an end
	edEndMsg              // SE_L2 sends the end message to the bank still running the stream
	edRetire              // SE_L3 drops the stream: end message delivered, or line program done
)

// edgeRow is one edge's row: the states it may leave, the state it enters,
// its counter, its sanitizer record (comp/ev, none if ev is "") and its
// tracer kind (KindNone: no span).
type edgeRow struct {
	from     uint8 // bit set of legal source states
	to       life
	count    func(*stats.Stats)
	comp, ev string
	span     trace.Kind
}

var edges = [...]edgeRow{
	edFloat:   {1 << atCore, floated, func(s *stats.Stats) { s.StreamsFloated++ }, "secore", "float", trace.KindStreamFloat},
	edConfig:  {1 << atCore, floated, func(s *stats.Stats) { s.StreamConfigs++; s.TLBTranslations++ }, "sel2", "cfg", trace.KindStreamConfig},
	edMigrate: {1 << floated, migrating, func(s *stats.Stats) { s.StreamMigrations++ }, "", "", trace.KindStreamMigrate},
	edLand:    {1 << migrating, floated, nil, "", "", trace.KindNone},
	edSink:    {1 << floated, sunk, func(s *stats.Stats) { s.StreamsSunk++ }, "secore", "sink", trace.KindStreamSink},
	edEnd:     {1<<atCore | 1<<floated | 1<<sunk, ended, nil, "secore", "end", trace.KindStreamEnd},
	edRelease: {1 << floated, ended, nil, "sel2", "term", trace.KindNone},
	edEndMsg:  {1 << ended, ended, func(s *stats.Stats) { s.StreamEnds++ }, "", "", trace.KindNone},
	edRetire:  {1<<floated | 1<<migrating, ended, nil, "", "", trace.KindNone},
}

// edge fires ed in tile (or bank) at's context for the records rs: one, or
// a confluence group's members, which migrate in one packet. It reads the
// cycle once, bumps the row's counter once, and for each record checks that
// the edge may leave its state (with the sanitizer on), appends the
// sanitizer record with payload a, b, drives the tracer span (where and cfg
// are the float's base address, the config's bank and packet; see
// trace.Tracer.Stream) and enters the row's state. Edges fire once per
// stream, never per element.
func (e *Engines) edge(ed edge, at int, a, b int64, where uint64, cfg []byte, rs ...*lifeRec) {
	row := &edges[ed]
	now := uint64(e.lay.Eng(at).Now())
	if row.count != nil {
		row.count(e.lay.St(at))
	}
	for _, r := range rs {
		if e.san != nil {
			if row.from&(1<<r.state) == 0 {
				e.san.Failf(r.key.tag(), "core: stream (tile %d, sid %d) took edge %d from state %d",
					r.key.tile, r.key.sid, ed, r.state)
			}
			if row.ev != "" {
				e.san.Trace(sanitize.Record{Cycle: now, Tile: at, Comp: row.comp, Event: row.ev, Key: r.key.tag(), A: a, B: b})
			}
		}
		if e.tr != nil && row.span != trace.KindNone {
			e.tr.Stream(row.span, now, r.key.tile, r.key.sid, a, b, where, cfg)
		}
		r.state = row.to
	}
}

// SetTracer attaches the structured tracer to the stream engines: lifecycle
// spans (the edges above) with the Table I wire payloads, and SE_L2/SE_L3
// activity events. nil detaches.
func (e *Engines) SetTracer(tr *trace.Tracer) { e.tr = tr }

// wirePacket builds the Table I configuration packet the SE_L2 sends for a
// group's float: the base affine pattern fast-forwarded to startElem (Iter
// counts nest elements, so it is the pattern's own Start plus startElem)
// plus one indirect entry per chained child. Shared by the sanitizer's wire
// checks and the tracer's span payloads so both see exactly what goes on
// the NoC. Lens are truncated to their 32-bit Table I fields; the sanitizer
// separately flags values that don't fit.
func (l *seL2) wirePacket(g *l2Group, startElem int64) stream.ConfigPacket {
	aff := g.baseAff
	pkt := stream.ConfigPacket{Affine: stream.AffineConfig{
		CID:  uint8(g.key.tile),
		SID:  uint8(g.key.sid),
		Base: aff.Base,
		Iter: uint64(aff.Start + startElem),
		Size: uint8(aff.ElemSize),
	}}
	for i := 0; i < stream.Levels; i++ {
		pkt.Affine.Strides[i] = aff.Strides[i]
		pkt.Affine.Lens[i] = uint32(aff.Lens[i])
	}
	for _, ch := range g.children {
		pkt.Indirects = append(pkt.Indirects, stream.IndirectConfig{
			SID: uint8(ch.ID), Base: ch.Indirect.Base, Size: uint8(ch.Indirect.ElemSize),
		})
	}
	return pkt
}
