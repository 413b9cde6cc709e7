// Package stream defines the decoupled-stream ISA abstractions of §III: the
// affine and indirect access patterns a stream_cfg instruction encodes, the
// configuration-packet bit layouts of Table I, and the element/line
// arithmetic shared by SEcore, SE_L2 and SE_L3.
package stream

import "fmt"

// LineBytes is the machine's one cache-line size (Table III): every cache
// level, the NoC's line payloads, the prefetchers and the element/line
// arithmetic of the stream engines use it.
const LineBytes = 64

// Levels is the maximum affine nesting depth supported by a single stream
// configuration (Table I supports a 3-level pattern).
const Levels = 3

// Table I packet sizes, in bits.
const (
	// AffineConfigBits is the size of an affine stream configuration
	// packet: cid(6) + sid(4) + base(48) + 3x stride(48) + ptable(48) +
	// iter(48) + size(8) + 3x len(32) — 450 bits, less than a cache line.
	AffineConfigBits = 450
	// IndirectConfigBits is the size of one indirect stream extension:
	// sid(4) + base(48) + size(8).
	IndirectConfigBits = 60
)

// ConfigBytes is the NoC payload of a stream configuration (or migration)
// packet carrying one affine pattern and n dependent indirect patterns.
func ConfigBytes(nIndirect int) int {
	bits := AffineConfigBits + nIndirect*IndirectConfigBits
	return (bits + 7) / 8
}

// Affine is an up-to-3-level nested affine access pattern:
//
//	for k in [0, Lens[2]) { for j in [0, Lens[1]) { for i in [0, Lens[0]) {
//	    access Base + k*Strides[2] + j*Strides[1] + i*Strides[0]
//	} } }
//
// Level 0 is innermost. Unused levels have Lens == 0 and are treated as a
// single iteration. Strides are in bytes and may be zero or negative
// (zero outer stride re-streams the inner pattern, as mv does with x[]).
//
// Start is Table I's iter field: the stream begins at element Start of the
// nest, so element i of the stream is nest element Start+i. Kernels build
// patterns with Start 0; a nonzero Start is a stream entered mid-nest (a
// sampled window that begins inside an outer row).
type Affine struct {
	Base     uint64
	ElemSize int64 // bytes accessed per element (up to a full line for SIMD)
	Strides  [Levels]int64
	Lens     [Levels]int64
	Start    int64
}

// nestElems is the trip count of the whole nest, ignoring Start.
func (a Affine) nestElems() int64 {
	n := int64(1)
	for _, l := range a.Lens {
		if l > 0 {
			n *= l
		}
	}
	return n
}

// NumElems returns the trip count of the pattern: the nest's elements from
// Start on.
func (a Affine) NumElems() int64 { return a.nestElems() - a.Start }

// AddrAt returns the address of element i (0 <= i < NumElems), which is
// nest element Start+i.
func (a Affine) AddrAt(i int64) uint64 {
	i += a.Start
	addr := int64(a.Base)
	for lv := 0; lv < Levels; lv++ {
		l := a.Lens[lv]
		if l <= 0 {
			continue
		}
		addr += (i % l) * a.Strides[lv]
		i /= l
	}
	return uint64(addr)
}

// FootprintBytes estimates the span of distinct bytes the pattern touches
// (used by the float policy to compare against private-cache capacity).
// Zero-stride levels contribute no new data.
func (a Affine) FootprintBytes() int64 {
	fp := a.ElemSize
	span := int64(0)
	for lv := 0; lv < Levels; lv++ {
		if a.Lens[lv] <= 1 {
			continue
		}
		s := a.Strides[lv]
		if s < 0 {
			s = -s
		}
		span += (a.Lens[lv] - 1) * s
	}
	if span == 0 {
		return fp
	}
	return span + fp
}

// Contiguous reports whether consecutive elements advance by exactly
// ElemSize at the innermost level (the common dense-streaming case).
func (a Affine) Contiguous() bool {
	return a.Lens[0] > 1 && a.Strides[0] == a.ElemSize
}

// Equal reports whether two affine patterns are identical — the confluence
// merge test (§IV-C): same base, element size, strides, lengths and start.
func (a Affine) Equal(b Affine) bool { return a == b }

// OffsetOf reports whether b is the same pattern as a shifted by a constant
// byte offset (the stencil A[i], A[i+K] reuse case of §IV-B), returning the
// offset (b.Base - a.Base) and true if so.
func (a Affine) OffsetOf(b Affine) (int64, bool) {
	if a.ElemSize != b.ElemSize || a.Strides != b.Strides || a.Lens != b.Lens || a.Start != b.Start {
		return 0, false
	}
	return int64(b.Base) - int64(a.Base), true
}

// Indirect describes a dependent access B[idx*Scale + Base] where idx is an
// element value produced by the base affine stream. The W loop (Eq. 1)
// transfers WBytes consecutive bytes from each indirect location — the
// subline transfer of §IV-B.
type Indirect struct {
	Base     uint64
	ElemSize int64 // bytes of one indirect record element
	Scale    int64 // multiplier applied to the index value
	WBytes   int64 // bytes transferred per location (>= ElemSize)
}

// AddrFor computes the indirect address for index value idx.
func (ind Indirect) AddrFor(idx uint64) uint64 {
	return ind.Base + uint64(int64(idx)*ind.Scale)
}

// Decl is one stream declaration as emitted by the stream compiler: either
// an affine pattern or an indirect pattern chained onto another stream.
type Decl struct {
	ID   int    // dense id within the program (maps to sid)
	Name string // for diagnostics ("a", "edge.dst", ...)
	PC   uint32 // synthetic PC of the consuming load (prefetcher training)

	Affine *Affine

	// Indirect chaining: when Indirect is non-nil, BaseOn names the Decl ID
	// of the affine stream producing index values.
	Indirect *Indirect
	BaseOn   int

	// UnknownLength marks streams whose trip count is not known at
	// configure time (data-dependent loop bounds); these cannot be floated
	// eagerly and rely on the history-table policy of §IV-D.
	UnknownLength bool

	// FootprintHint, when positive, overrides the affine pattern's computed
	// footprint for the float policy's capacity test. Sampled simulation
	// sets it on sliced streams: an interval's slice of a large stream has a
	// small footprint, but the float decision must match the full run's.
	FootprintHint int64
}

// FloatFootprintBytes is the footprint the float policy compares against
// private-cache capacity: the hint when set, else the affine span.
func (d Decl) FloatFootprintBytes() int64 {
	if d.FootprintHint > 0 {
		return d.FootprintHint
	}
	if d.Affine != nil {
		return d.Affine.FootprintBytes()
	}
	return 0
}

// IsIndirect reports whether the stream is an indirect (dependent) stream.
func (d Decl) IsIndirect() bool { return d.Indirect != nil }

// ElemSize returns the element size in bytes.
func (d Decl) ElemSize() int64 {
	if d.IsIndirect() {
		return d.Indirect.ElemSize
	}
	return d.Affine.ElemSize
}

// NumElems returns the element count (affine trip count; indirect streams
// inherit their base stream's count).
func (d Decl) NumElems() int64 {
	if d.Affine != nil {
		return d.Affine.NumElems()
	}
	return 0
}

// Validate checks structural invariants of a declaration.
func (d Decl) Validate() error {
	if d.Affine == nil && d.Indirect == nil {
		return fmt.Errorf("stream %q: neither affine nor indirect", d.Name)
	}
	if d.Affine != nil && d.Indirect != nil {
		return fmt.Errorf("stream %q: both affine and indirect", d.Name)
	}
	if d.Affine != nil {
		if d.Affine.ElemSize <= 0 || d.Affine.ElemSize > LineBytes {
			return fmt.Errorf("stream %q: element size %d out of (0,%d]", d.Name, d.Affine.ElemSize, LineBytes)
		}
		if n := d.Affine.nestElems(); d.Affine.Start < 0 || d.Affine.Start >= n {
			return fmt.Errorf("stream %q: start element %d out of [0,%d)", d.Name, d.Affine.Start, n)
		}
	}
	if d.Indirect != nil {
		if d.BaseOn < 0 {
			return fmt.Errorf("stream %q: indirect stream without base stream", d.Name)
		}
		if d.Indirect.ElemSize <= 0 {
			return fmt.Errorf("stream %q: indirect element size %d", d.Name, d.Indirect.ElemSize)
		}
	}
	return nil
}

// ElemsPerLine returns how many elements share one line for a contiguous
// stream of the given element size.
func ElemsPerLine(elemSize int64) int64 {
	n := int64(LineBytes) / elemSize
	if n < 1 {
		return 1
	}
	return n
}
