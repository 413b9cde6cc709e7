package stream

import (
	"bytes"
	"reflect"
	"testing"
)

func samplePacket(nInd int) ConfigPacket {
	p := ConfigPacket{Affine: AffineConfig{
		CID:     13,
		SID:     7,
		Base:    0x0000_7f00_1234_5678 & addrMask,
		Strides: [Levels]int64{8, -512, 1 << 20},
		PTable:  0x1000,
		Iter:    42,
		Size:    8,
		Lens:    [Levels]uint32{1024, 64, 3},
	}}
	for i := 0; i < nInd; i++ {
		p.Indirects = append(p.Indirects, IndirectConfig{
			SID: uint8(8 + i), Base: uint64(0x2000 * (i + 1)), Size: 4,
		})
	}
	return p
}

// TestPacketSizes: the wire form is exactly the Table I size for every
// indirect count, and sizes strictly increase (so decode can infer the
// count from the length).
func TestPacketSizes(t *testing.T) {
	if affineFieldBits+reservedBits != AffineConfigBits {
		t.Fatalf("field bits %d + reserved %d != %d", affineFieldBits, reservedBits, AffineConfigBits)
	}
	prev := -1
	for n := 0; n < 8; n++ {
		data, err := samplePacket(n).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != ConfigBytes(n) {
			t.Fatalf("n=%d: %d bytes, want %d", n, len(data), ConfigBytes(n))
		}
		if len(data) <= prev {
			t.Fatalf("n=%d: size %d not above n-1's %d", n, len(data), prev)
		}
		prev = len(data)
	}
	if ConfigBytes(0) != (AffineConfigBits+7)/8 {
		t.Fatalf("affine packet %d bytes, want %d", ConfigBytes(0), (AffineConfigBits+7)/8)
	}
}

// TestRoundTrip: encode -> decode -> re-encode is the identity, including
// negative strides and multiple indirect extensions.
func TestRoundTrip(t *testing.T) {
	for n := 0; n < 4; n++ {
		p := samplePacket(n)
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("n=%d: decode mismatch:\n got %+v\nwant %+v", n, back, p)
		}
		data2, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("n=%d: re-encode differs", n)
		}
	}
}

// TestPatternFromIter: a packet built from a pattern with a nonzero Start
// and fast-forwarded past it decodes to a pattern whose element 0 is the
// hand-off element, and whose remaining elements follow the original's.
func TestPatternFromIter(t *testing.T) {
	a := Affine{Base: 0x10000, ElemSize: 8, Strides: [3]int64{8, -1024, 1 << 20}, Lens: [3]int64{16, 5, 3}, Start: 21}
	const handoff = 9
	p := ConfigPacket{Affine: AffineConfig{
		Base: a.Base, Strides: a.Strides, Iter: uint64(a.Start + handoff), Size: uint8(a.ElemSize),
		Lens: [3]uint32{16, 5, 3},
	}}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Affine.Pattern()
	if n, want := got.NumElems(), a.NumElems()-handoff; n != want {
		t.Fatalf("decoded pattern has %d elements, want %d", n, want)
	}
	for i := int64(0); i < got.NumElems(); i++ {
		if g, w := got.AddrAt(i), a.AddrAt(handoff+i); g != w {
			t.Fatalf("decoded AddrAt(%d) = %#x, want %#x", i, g, w)
		}
	}
}

// TestEncodeRangeChecks: fields wider than their Table I slots are rejected.
func TestEncodeRangeChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*ConfigPacket)
	}{
		{"cid", func(p *ConfigPacket) { p.Affine.CID = 1 << cidBits }},
		{"sid", func(p *ConfigPacket) { p.Affine.SID = 1 << sidBits }},
		{"base", func(p *ConfigPacket) { p.Affine.Base = addrMask + 1 }},
		{"iter", func(p *ConfigPacket) { p.Affine.Iter = 1 << addrBits }},
		{"stride-pos", func(p *ConfigPacket) { p.Affine.Strides[1] = 1 << (addrBits - 1) }},
		{"stride-neg", func(p *ConfigPacket) { p.Affine.Strides[2] = -(1<<(addrBits-1) + 1) }},
		{"ind-sid", func(p *ConfigPacket) { p.Indirects[0].SID = 1 << sidBits }},
		{"ind-base", func(p *ConfigPacket) { p.Indirects[0].Base = addrMask + 1 }},
	} {
		p := samplePacket(1)
		tc.mut(&p)
		if _, err := p.Encode(); err == nil {
			t.Errorf("%s: out-of-range field encoded", tc.name)
		}
	}
}

// TestDecodeRejectsBadLength: only exact Table I packet sizes parse.
func TestDecodeRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 1, ConfigBytes(0) - 1, ConfigBytes(0) + 1, ConfigBytes(3) + 2} {
		if _, err := DecodeConfig(make([]byte, n)); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

// TestDecodeRejectsDirtyReserved: non-zero reserved or pad bits are
// rejected, making accepted packets canonical.
func TestDecodeRejectsDirtyReserved(t *testing.T) {
	data, err := samplePacket(1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	dirty := append([]byte(nil), data...)
	dirty[affineFieldBits/8] |= 1 << 1 // inside the reserved window
	if _, err := DecodeConfig(dirty); err == nil {
		t.Error("dirty reserved bits accepted")
	}
	dirty = append([]byte(nil), data...)
	dirty[len(dirty)-1] |= 1 // last pad bit
	if _, err := DecodeConfig(dirty); err == nil {
		t.Error("dirty pad bits accepted")
	}
}

// FuzzAffinePatternRoundTrip drives the affine section of the Table I
// layout: any in-range field combination must encode to exactly
// ConfigBytes(0) bytes and round-trip through decode and re-encode
// unchanged.
func FuzzAffinePatternRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), int64(0), int64(0), int64(0), uint64(0), uint64(0), uint8(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint8(63), uint8(15), addrMask, int64(-1), int64(1)<<46, int64(-(1 << 46)), addrMask, addrMask, uint8(255), uint32(1<<32-1), uint32(7), uint32(0))
	f.Fuzz(func(t *testing.T, cid, sid uint8, base uint64, s0, s1, s2 int64, ptable, iter uint64, size uint8, l0, l1, l2 uint32) {
		clampS := func(s int64) int64 { // reduce into the signed 48-bit field
			v := uint64(s) & addrMask
			if v&(1<<(addrBits-1)) != 0 {
				v |= ^addrMask
			}
			return int64(v)
		}
		p := ConfigPacket{Affine: AffineConfig{
			CID: cid & (1<<cidBits - 1), SID: sid & (1<<sidBits - 1),
			Base:    base & addrMask,
			Strides: [Levels]int64{clampS(s0), clampS(s1), clampS(s2)},
			PTable:  ptable & addrMask, Iter: iter & addrMask,
			Size: size, Lens: [Levels]uint32{l0, l1, l2},
		}}
		data, err := p.Encode()
		if err != nil {
			t.Fatalf("in-range packet failed to encode: %v", err)
		}
		if len(data) != ConfigBytes(0) {
			t.Fatalf("%d bytes, want %d", len(data), ConfigBytes(0))
		}
		back, err := DecodeConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, p)
		}
		data2, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatal("re-encode differs")
		}
	})
}

// FuzzIndirectPatternRoundTrip drives the decoder with raw bytes: any
// packet it accepts (including every indirect-extension count the length
// implies) must re-encode to the identical bytes — the canonical-form
// property the SE_L2 wire probe relies on.
func FuzzIndirectPatternRoundTrip(f *testing.F) {
	for n := 0; n < 4; n++ {
		data, err := samplePacket(n).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(make([]byte, ConfigBytes(2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeConfig(data)
		if err != nil {
			return // malformed input is allowed to be rejected
		}
		back, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, back) {
			t.Fatalf("accepted packet is not canonical:\n in  %x\n out %x", data, back)
		}
	})
}
