package core

import (
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// SetTracer attaches the structured tracer to the stream engines: lifecycle
// spans (float/config/migrate/sink/end) with the Table I wire payloads, and
// SE_L2/SE_L3 activity events. nil detaches.
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

// traceConfig attaches the encoded configuration payload to the stream's
// lifecycle span when tracing is on.
func (l *seL2) traceConfig(g *l2Group, startElem int64, bank int) {
	if l.e.tr == nil {
		return
	}
	pkt := l.wirePacket(g, startElem)
	data, err := pkt.Encode()
	if err != nil {
		data = nil // unencodable configs are the sanitizer's problem
	}
	l.e.tr.StreamConfig(uint64(l.e.lay.Eng(l.tile).Now()), g.key.tile, g.key.sid, startElem, data, bank)
}
