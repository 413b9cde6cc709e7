package stream

import "fmt"

// Field widths of the Table I configuration-packet layout, in bits. The
// affine section packs cid + sid + base + 3x stride + ptable + iter + size +
// 3x len, then pads with reserved must-be-zero bits up to AffineConfigBits;
// each indirect extension packs sid + base + size.
const (
	cidBits  = 6
	sidBits  = 4
	addrBits = 48
	sizeBits = 8
	lenBits  = 32

	affineFieldBits = cidBits + sidBits + addrBits + Levels*addrBits +
		addrBits + addrBits + sizeBits + Levels*lenBits
	reservedBits = AffineConfigBits - affineFieldBits

	addrMask = uint64(1)<<addrBits - 1
)

// AffineConfig is the decoded affine section of a stream configuration
// packet (Table I). Addresses, strides and the iteration counter are 48-bit
// fields; strides are signed two's complement.
type AffineConfig struct {
	CID     uint8  // 6-bit configuring-core id
	SID     uint8  // 4-bit stream id
	Base    uint64 // 48-bit base virtual address
	Strides [Levels]int64
	PTable  uint64 // 48-bit page-table root for SE-side translation
	Iter    uint64 // 48-bit starting iteration (float hand-off point)
	Size    uint8  // element size in bytes
	Lens    [Levels]uint32
}

// Pattern is the affine pattern the packet configures, entered at its Iter:
// element 0 of the result is the first element the receiving engine issues.
func (a AffineConfig) Pattern() Affine {
	p := Affine{Base: a.Base, ElemSize: int64(a.Size), Strides: a.Strides, Start: int64(a.Iter)}
	for i, l := range a.Lens {
		p.Lens[i] = int64(l)
	}
	return p
}

// IndirectConfig is one decoded indirect extension of a configuration
// packet: the dependent stream's id, base address and element size.
type IndirectConfig struct {
	SID  uint8
	Base uint64
	Size uint8
}

// ConfigPacket is a full stream configuration: one affine pattern plus its
// chained indirect extensions. Its wire form is exactly
// ConfigBytes(len(Indirects)) bytes.
type ConfigPacket struct {
	Affine    AffineConfig
	Indirects []IndirectConfig
}

// bitWriter packs MSB-first into a fixed-size buffer.
type bitWriter struct {
	buf []byte
	pos int // bit position
}

func (w *bitWriter) write(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if v>>uint(i)&1 != 0 {
			w.buf[w.pos>>3] |= 1 << uint(7-w.pos&7)
		}
		w.pos++
	}
}

// bitReader unpacks MSB-first.
type bitReader struct {
	buf []byte
	pos int
}

func (r *bitReader) read(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v <<= 1
		if r.buf[r.pos>>3]>>uint(7-r.pos&7)&1 != 0 {
			v |= 1
		}
		r.pos++
	}
	return v
}

// fitsAddr reports whether v fits an unsigned 48-bit field.
func fitsAddr(v uint64) bool { return v <= addrMask }

// fitsStride reports whether s fits a signed 48-bit field.
func fitsStride(s int64) bool {
	const lim = int64(1) << (addrBits - 1)
	return s >= -lim && s < lim
}

// Encode serializes the packet into its Table I wire form. It fails if any
// field exceeds its bit width; the result is always exactly
// ConfigBytes(len(p.Indirects)) bytes with reserved and pad bits zero.
func (p ConfigPacket) Encode() ([]byte, error) {
	a := p.Affine
	if a.CID >= 1<<cidBits {
		return nil, fmt.Errorf("stream: cid %d exceeds %d bits", a.CID, cidBits)
	}
	if a.SID >= 1<<sidBits {
		return nil, fmt.Errorf("stream: sid %d exceeds %d bits", a.SID, sidBits)
	}
	if !fitsAddr(a.Base) || !fitsAddr(a.PTable) || !fitsAddr(a.Iter) {
		return nil, fmt.Errorf("stream: base/ptable/iter %#x/%#x/%#x exceed %d bits", a.Base, a.PTable, a.Iter, addrBits)
	}
	for _, s := range a.Strides {
		if !fitsStride(s) {
			return nil, fmt.Errorf("stream: stride %d exceeds signed %d bits", s, addrBits)
		}
	}
	for _, ind := range p.Indirects {
		if ind.SID >= 1<<sidBits {
			return nil, fmt.Errorf("stream: indirect sid %d exceeds %d bits", ind.SID, sidBits)
		}
		if !fitsAddr(ind.Base) {
			return nil, fmt.Errorf("stream: indirect base %#x exceeds %d bits", ind.Base, addrBits)
		}
	}

	w := bitWriter{buf: make([]byte, ConfigBytes(len(p.Indirects)))}
	w.write(uint64(a.CID), cidBits)
	w.write(uint64(a.SID), sidBits)
	w.write(a.Base, addrBits)
	for _, s := range a.Strides {
		w.write(uint64(s)&addrMask, addrBits)
	}
	w.write(a.PTable, addrBits)
	w.write(a.Iter, addrBits)
	w.write(uint64(a.Size), sizeBits)
	for _, l := range a.Lens {
		w.write(uint64(l), lenBits)
	}
	w.write(0, reservedBits)
	for _, ind := range p.Indirects {
		w.write(uint64(ind.SID), sidBits)
		w.write(ind.Base, addrBits)
		w.write(uint64(ind.Size), sizeBits)
	}
	return w.buf, nil
}

// DecodeConfig parses a Table I wire packet. The indirect-extension count is
// inferred from the length (ConfigBytes is strictly increasing in it), and
// reserved or pad bits that are not zero are rejected, so every accepted
// packet re-encodes to the identical bytes.
func DecodeConfig(data []byte) (ConfigPacket, error) {
	n := -1
	for k := 0; ; k++ {
		sz := ConfigBytes(k)
		if sz == len(data) {
			n = k
			break
		}
		if sz > len(data) {
			return ConfigPacket{}, fmt.Errorf("stream: %d bytes matches no configuration-packet size", len(data))
		}
	}
	r := bitReader{buf: data}
	var p ConfigPacket
	a := &p.Affine
	a.CID = uint8(r.read(cidBits))
	a.SID = uint8(r.read(sidBits))
	a.Base = r.read(addrBits)
	for i := range a.Strides {
		v := r.read(addrBits)
		if v&(1<<(addrBits-1)) != 0 {
			v |= ^addrMask // sign-extend
		}
		a.Strides[i] = int64(v)
	}
	a.PTable = r.read(addrBits)
	a.Iter = r.read(addrBits)
	a.Size = uint8(r.read(sizeBits))
	for i := range a.Lens {
		a.Lens[i] = uint32(r.read(lenBits))
	}
	if v := r.read(reservedBits); v != 0 {
		return ConfigPacket{}, fmt.Errorf("stream: reserved bits %#x not zero", v)
	}
	if n > 0 {
		p.Indirects = make([]IndirectConfig, n)
		for i := range p.Indirects {
			p.Indirects[i].SID = uint8(r.read(sidBits))
			p.Indirects[i].Base = r.read(addrBits)
			p.Indirects[i].Size = uint8(r.read(sizeBits))
		}
	}
	if pad := len(data)*8 - r.pos; pad > 0 {
		if v := r.read(pad); v != 0 {
			return ConfigPacket{}, fmt.Errorf("stream: %d pad bits %#x not zero", pad, v)
		}
	}
	return p, nil
}
