package stream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigBytesTableI(t *testing.T) {
	// 450 bits = 57 bytes (rounded up); each indirect adds 60 bits.
	if got := ConfigBytes(0); got != 57 {
		t.Errorf("affine config = %d bytes, want 57", got)
	}
	if got := ConfigBytes(1); got != (450+60+7)/8 {
		t.Errorf("affine+1 indirect = %d bytes", got)
	}
	if AffineConfigBits != 450 || IndirectConfigBits != 60 {
		t.Error("Table I bit widths changed")
	}
}

func TestAffine1D(t *testing.T) {
	a := Affine{Base: 0x1000, ElemSize: 4, Strides: [3]int64{4}, Lens: [3]int64{10}}
	if a.NumElems() != 10 {
		t.Fatalf("NumElems = %d", a.NumElems())
	}
	for i := int64(0); i < 10; i++ {
		if got := a.AddrAt(i); got != 0x1000+uint64(i*4) {
			t.Fatalf("AddrAt(%d) = %#x", i, got)
		}
	}
}

func TestAffine2DRowMajor(t *testing.T) {
	// 4 rows of 8 elements, rows 1 KiB apart.
	a := Affine{Base: 0x10000, ElemSize: 8, Strides: [3]int64{8, 1024}, Lens: [3]int64{8, 4}}
	if a.NumElems() != 32 {
		t.Fatalf("NumElems = %d", a.NumElems())
	}
	if got := a.AddrAt(8); got != 0x10000+1024 {
		t.Errorf("row 1 start = %#x", got)
	}
	if got := a.AddrAt(17); got != 0x10000+2*1024+8 {
		t.Errorf("elem 17 = %#x", got)
	}
}

func TestAffineZeroOuterStrideRestreams(t *testing.T) {
	// mv's x vector: re-streamed per row.
	a := Affine{Base: 0x2000, ElemSize: 64, Strides: [3]int64{64, 0}, Lens: [3]int64{4, 3}}
	for r := int64(0); r < 3; r++ {
		for i := int64(0); i < 4; i++ {
			if got := a.AddrAt(r*4 + i); got != 0x2000+uint64(i*64) {
				t.Fatalf("restream elem (%d,%d) = %#x", r, i, got)
			}
		}
	}
}

func TestAffineNegativeStride(t *testing.T) {
	a := Affine{Base: 0x1000, ElemSize: 4, Strides: [3]int64{-4}, Lens: [3]int64{5}}
	if got := a.AddrAt(4); got != 0x1000-16 {
		t.Errorf("AddrAt(4) = %#x", got)
	}
	if fp := a.FootprintBytes(); fp != 20 {
		t.Errorf("footprint = %d, want 20", fp)
	}
}

func TestFootprint(t *testing.T) {
	a := Affine{Base: 0, ElemSize: 64, Strides: [3]int64{64}, Lens: [3]int64{100}}
	if fp := a.FootprintBytes(); fp != 64*100 {
		t.Errorf("dense footprint = %d", fp)
	}
	// Zero-stride outer adds nothing.
	b := Affine{Base: 0, ElemSize: 64, Strides: [3]int64{64, 0}, Lens: [3]int64{100, 8}}
	if fp := b.FootprintBytes(); fp != 64*100 {
		t.Errorf("restream footprint = %d", fp)
	}
}

func TestOffsetOf(t *testing.T) {
	a := Affine{Base: 0x1000, ElemSize: 64, Strides: [3]int64{64, 4096}, Lens: [3]int64{16, 8}}
	b := a
	b.Base = 0x1000 + 4096
	off, ok := a.OffsetOf(b)
	if !ok || off != 4096 {
		t.Errorf("OffsetOf = %d, %v", off, ok)
	}
	c := a
	c.Lens[0] = 8
	if _, ok := a.OffsetOf(c); ok {
		t.Error("different shapes must not be offsets")
	}
}

// TestAffineStart: a nonzero Start enters the nest mid-row. Element i is
// nest element Start+i, the trip count shrinks by Start, two patterns that
// differ only in Start are neither equal nor offset copies, and Validate
// accepts exactly the starts inside the nest.
func TestAffineStart(t *testing.T) {
	// 3 rows of 4 elements, rows 1 KiB apart; nest size 12.
	nest := Affine{Base: 0x4000, ElemSize: 8, Strides: [3]int64{8, 1024}, Lens: [3]int64{4, 3}}
	for _, tc := range []struct {
		start    int64
		valid    bool
		first    uint64 // AddrAt(0)
		numElems int64
	}{
		{start: 0, valid: true, first: 0x4000, numElems: 12},
		{start: 1, valid: true, first: 0x4008, numElems: 11},
		{start: 4, valid: true, first: 0x4400, numElems: 8},
		{start: 7, valid: true, first: 0x4418, numElems: 5},
		{start: 11, valid: true, first: 0x4818, numElems: 1},
		{start: 12, valid: false},
		{start: 40, valid: false},
		{start: -1, valid: false},
	} {
		a := nest
		a.Start = tc.start
		d := Decl{Name: "a", Affine: &a}
		if err := d.Validate(); (err == nil) != tc.valid {
			t.Errorf("Start %d: Validate = %v, want valid %v", tc.start, err, tc.valid)
		}
		if !tc.valid {
			continue
		}
		if got := a.NumElems(); got != tc.numElems {
			t.Errorf("Start %d: NumElems = %d, want %d", tc.start, got, tc.numElems)
		}
		if got := a.AddrAt(0); got != tc.first {
			t.Errorf("Start %d: AddrAt(0) = %#x, want %#x", tc.start, got, tc.first)
		}
		for i := int64(0); i < a.NumElems(); i++ {
			if got, want := a.AddrAt(i), nest.AddrAt(tc.start+i); got != want {
				t.Fatalf("Start %d: AddrAt(%d) = %#x, want nest element %d at %#x",
					tc.start, i, got, tc.start+i, want)
			}
		}
		if a.Equal(nest) != (tc.start == 0) {
			t.Errorf("Start %d: Equal(nest) = %v", tc.start, a.Equal(nest))
		}
		shifted := a
		shifted.Base += 4096
		if off, ok := a.OffsetOf(shifted); !ok || off != 4096 {
			t.Errorf("Start %d: OffsetOf(shifted copy) = %d, %v", tc.start, off, ok)
		}
		if _, ok := nest.OffsetOf(shifted); ok != (tc.start == 0) {
			t.Errorf("Start %d: OffsetOf across starts = %v", tc.start, ok)
		}
	}
}

func TestIndirectAddr(t *testing.T) {
	ind := Indirect{Base: 0x8000, ElemSize: 4, Scale: 4, WBytes: 4}
	if got := ind.AddrFor(10); got != 0x8000+40 {
		t.Errorf("AddrFor(10) = %#x", got)
	}
}

func TestDeclValidate(t *testing.T) {
	good := Decl{ID: 0, Name: "a", Affine: &Affine{Base: 64, ElemSize: 4, Strides: [3]int64{4}, Lens: [3]int64{8}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid decl rejected: %v", err)
	}
	bad := []Decl{
		{Name: "none"},
		{Name: "both", Affine: good.Affine, Indirect: &Indirect{ElemSize: 4}, BaseOn: 0},
		{Name: "bigelem", Affine: &Affine{ElemSize: 128, Strides: [3]int64{128}, Lens: [3]int64{2}}},
		{Name: "orphan", Indirect: &Indirect{ElemSize: 4}, BaseOn: -1},
		{Name: "empty", Affine: &Affine{ElemSize: 4}},
	}
	for _, d := range bad {
		d := d
		if d.Name == "empty" {
			d.Affine.Lens = [3]int64{0}
			d.Affine.ElemSize = 0
		}
		if err := d.Validate(); err == nil {
			t.Errorf("decl %q accepted", d.Name)
		}
	}
}

func TestElemsPerLine(t *testing.T) {
	if ElemsPerLine(4) != 16 || ElemsPerLine(64) != 1 || ElemsPerLine(16) != 4 {
		t.Error("ElemsPerLine wrong")
	}
}

// Property: AddrAt is injective-modulo-pattern: decomposing i into loop
// indices and recomposing yields the same address as direct evaluation.
func TestPropertyAddrDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Affine{
			Base:     uint64(rng.Intn(1 << 20)),
			ElemSize: 4,
			Strides:  [3]int64{4, int64(rng.Intn(8192)), int64(rng.Intn(1 << 16))},
			Lens:     [3]int64{1 + int64(rng.Intn(16)), 1 + int64(rng.Intn(8)), 1 + int64(rng.Intn(4))},
		}
		for trial := 0; trial < 50; trial++ {
			i := rng.Int63n(a.NumElems())
			i0 := i % a.Lens[0]
			i1 := (i / a.Lens[0]) % a.Lens[1]
			i2 := i / (a.Lens[0] * a.Lens[1])
			want := int64(a.Base) + i0*a.Strides[0] + i1*a.Strides[1] + i2*a.Strides[2]
			if a.AddrAt(i) != uint64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a contiguous pattern's footprint equals elems x size, and every
// address lies within [Base, Base+footprint).
func TestPropertyFootprintBounds(t *testing.T) {
	f := func(nRaw, szRaw uint8) bool {
		n := int64(nRaw%200) + 1
		size := []int64{4, 8, 16, 32, 64}[szRaw%5]
		a := Affine{Base: 1 << 20, ElemSize: size, Strides: [3]int64{size}, Lens: [3]int64{n}}
		if a.FootprintBytes() != n*size {
			return false
		}
		for i := int64(0); i < n; i++ {
			addr := a.AddrAt(i)
			if addr < a.Base || addr+uint64(size) > a.Base+uint64(a.FootprintBytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
