// Package mem provides the functional backing store and the DRAM timing
// model. The backing store holds real bytes so that indirect streams
// (B[A[i]]) chase genuine index values: the timing model decides *when* a
// value arrives, the backing store decides *what* the value is.
package mem

import (
	"encoding/binary"
	"math"

	"streamfloat/internal/stream"
)

const pageShift = 12 // 4 KiB pages

// Backing is a sparse byte-addressable memory. The zero value is empty and
// ready to use. Reads of unwritten memory return zeros, like freshly mapped
// anonymous pages.
//
// Pages are indexed by page number in a flat table that grows to the
// highest page written: the bump allocator hands out one dense range from a
// low base, so the table stays small and a read — which the stream engines
// and cores issue per indirect element — is two indexed loads, no hashing.
type Backing struct {
	pages  []*[1 << pageShift]byte
	npages int    // non-nil entries of pages
	brk    uint64 // bump allocator cursor
}

// NewBacking returns an empty backing store whose allocator starts at a
// nonzero base (so address 0 is never a valid array base).
func NewBacking() *Backing {
	return &Backing{brk: 1 << 20}
}

// Alloc reserves size bytes aligned to align (which must be a power of two;
// 0 means cache-line alignment) and returns the base address.
func (b *Backing) Alloc(size uint64, align uint64) uint64 {
	if align == 0 {
		align = stream.LineBytes
	}
	b.brk = (b.brk + align - 1) &^ (align - 1)
	base := b.brk
	b.brk += size
	return base
}

// page returns addr's page, allocating it (and growing the table) if needed.
func (b *Backing) page(addr uint64) *[1 << pageShift]byte {
	pn := addr >> pageShift
	if pn >= uint64(len(b.pages)) {
		b.pages = append(b.pages, make([]*[1 << pageShift]byte, pn+1-uint64(len(b.pages)))...)
	}
	p := b.pages[pn]
	if p == nil {
		p = new([1 << pageShift]byte)
		b.pages[pn] = p
		b.npages++
	}
	return p
}

// lookup returns addr's page, or nil if it was never written.
func (b *Backing) lookup(addr uint64) *[1 << pageShift]byte {
	if pn := addr >> pageShift; pn < uint64(len(b.pages)) {
		return b.pages[pn]
	}
	return nil
}

// Load8 returns the byte at addr.
func (b *Backing) Load8(addr uint64) byte {
	p := b.lookup(addr)
	if p == nil {
		return 0
	}
	return p[addr&(1<<pageShift-1)]
}

// Store8 stores v at addr.
func (b *Backing) Store8(addr uint64, v byte) {
	b.page(addr)[addr&(1<<pageShift-1)] = v
}

// Read copies len(dst) bytes starting at addr into dst.
func (b *Backing) Read(addr uint64, dst []byte) {
	for i := range dst {
		dst[i] = b.Load8(addr + uint64(i))
	}
}

// Write copies src into memory starting at addr.
func (b *Backing) Write(addr uint64, src []byte) {
	for i, v := range src {
		b.Store8(addr+uint64(i), v)
	}
}

// ReadU32 loads a little-endian uint32.
func (b *Backing) ReadU32(addr uint64) uint32 {
	if off := addr & (1<<pageShift - 1); off <= 1<<pageShift-4 {
		p := b.lookup(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off : off+4])
	}
	var buf [4]byte
	b.Read(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// WriteU32 stores a little-endian uint32.
func (b *Backing) WriteU32(addr uint64, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(addr, buf[:])
}

// ReadU64 loads a little-endian uint64.
func (b *Backing) ReadU64(addr uint64) uint64 {
	var buf [8]byte
	b.Read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteU64 stores a little-endian uint64.
func (b *Backing) WriteU64(addr uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.Write(addr, buf[:])
}

// ReadF32 loads a float32.
func (b *Backing) ReadF32(addr uint64) float32 {
	return math.Float32frombits(b.ReadU32(addr))
}

// WriteF32 stores a float32.
func (b *Backing) WriteF32(addr uint64, v float32) {
	b.WriteU32(addr, math.Float32bits(v))
}

// Pages reports how many distinct pages have been touched.
func (b *Backing) Pages() int { return b.npages }
