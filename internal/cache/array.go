// Package cache implements the three-level cache hierarchy: private L1/L2
// caches per tile, shared static-NUCA L3 banks with a directory-based MESI
// protocol (plus the paper's GetU uncached-read extension), RRIP replacement,
// MSHR merging, and the eviction/reuse accounting behind Fig 2.
package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MESI stable states tracked at the private L2 (L1 holds valid/dirty only
// and is kept inclusive in L2).
type state uint8

const (
	stInvalid state = iota
	stShared
	stExclusive
	stModified
)

func (s state) String() string {
	switch s {
	case stInvalid:
		return "I"
	case stShared:
		return "S"
	case stExclusive:
		return "E"
	case stModified:
		return "M"
	}
	return "?"
}

// rrpvMax is the distant re-reference value for 2-bit RRIP.
const rrpvMax = 3

// noStream marks a line not brought in by a stream access.
const noStream = -1

// line is one cache line's metadata. Which address a way holds, if any, is
// not here but in the array's tag slice, so a lookup that misses never reads
// a line. The directory fields (sharers, owner) are only meaningful in L3
// bank arrays. Fields are ordered widest first so the struct packs into 24
// bytes: with its 8-byte tag a way costs 32.
type line struct {
	// Directory state (L3 only).
	sharers uint64 // bitmask of tiles with the line in S
	owner   int16  // tile holding the line in E/M, or -1

	streamID int16 // stream that brought the line in (noStream if none)
	dirty    bool
	reused   bool // hit at least once after fill
	pf       bool // brought in by a prefetcher and not yet demanded
	stream   bool // brought in by a compiler-identified stream access
	state    state
	rrpv     uint8
}

// emptyLine is the state of a way that holds nothing.
var emptyLine = line{owner: -1, streamID: noStream}

// slab is the storage of one array: a line and a tag per way. tags[i] is
// lineAddr|1 for the address way i holds (line addresses are 64-byte aligned,
// so bit 0 is free to tell address 0 from nothing) and 0 for an empty way.
type slab struct {
	lines []line
	tags  []uint64
}

// slabPools recycles slabs between machines, one sync.Pool per slab length
// (a machine has three: L1, L2, L3 bank). Every pooled slab holds only
// emptyLine and zero tags, so a recycled slab is indistinguishable from a
// fresh one.
var slabPools sync.Map // int (ways) -> *sync.Pool of *slab

func slabPool(n int) *sync.Pool {
	if p, ok := slabPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := slabPools.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}

// newSlab returns n empty ways, recycled if the pool has a slab that size. A
// fresh slab's tags are whatever zeroed memory make returns and are never
// written here, so the tag pages of sets a run never fills stay untouched.
func newSlab(n int) *slab {
	if !poolBypass.Load() {
		if sl, ok := slabPool(n).Get().(*slab); ok {
			return sl
		}
	}
	sl := &slab{lines: make([]line, n), tags: make([]uint64, n)}
	for i := range sl.lines {
		sl.lines[i] = emptyLine
	}
	return sl
}

// poolBypass, while set, makes newSlab build every slab fresh.
var poolBypass atomic.Bool

// SetPoolBypass is a test hook, not an option: it makes every newArray build
// a fresh slab until the returned restore function runs, so a test can hold
// a recycled run against a pristine one. It is exported only because that
// oracle (TestRecycledStateInvisible) lives in internal/system.
func SetPoolBypass(on bool) (restore func()) {
	prev := poolBypass.Swap(on)
	return func() { poolBypass.Store(prev) }
}

// array is a set-associative cache array with (Bimodal) RRIP replacement.
type array struct {
	sets      int
	ways      int
	lineBytes uint64
	slab      *slab
	lines     []line   // slab.lines
	tags      []uint64 // slab.tags; insert, invalidate and release are the only writers
	// touched has bit s set once set s has been filled; release resets only
	// those sets. insert is the only code that makes a way non-empty, so a set
	// whose bit is clear still holds what newSlab handed out.
	touched []uint64
	// brripLongEvery inserts at "long" re-reference once every N fills
	// (N = round(1/p)); 1 means always long (SRRIP).
	brripLongEvery int
	fillCount      int

	// Set selection: set = index % sets, where index is the line number
	// (lineAddr / lineBytes) or, after setBankLocal, the bank-local line
	// number. pow2 says every divisor is a power of two (Table III always
	// is), so setOf shifts and masks instead of dividing by run-time values.
	interleave, tiles uint64 // bank-local indexing; interleave 0 = raw line number
	pow2              bool
	lineShift         uint // log2(lineBytes)
	chunkShift        uint // log2(interleave)
	tileShift         uint // log2(tiles)
}

func newArray(sizeBytes, ways, lineBytes int, brripProb float64) *array {
	sets := sizeBytes / (ways * lineBytes)
	if sets <= 0 {
		panic("cache: array must have at least one set")
	}
	longEvery := 1
	if brripProb > 0 && brripProb < 1 {
		longEvery = int(1.0/brripProb + 0.5)
	}
	a := &array{
		sets:           sets,
		ways:           ways,
		lineBytes:      uint64(lineBytes),
		slab:           newSlab(sets * ways),
		touched:        make([]uint64, (sets+63)/64),
		brripLongEvery: longEvery,
	}
	a.lines, a.tags = a.slab.lines, a.slab.tags
	a.setBankLocal(0, 1)
	return a
}

// release empties every set that was ever filled and hands the slab back
// for the next machine's newArray. The array is unusable afterwards: lines
// and tags are nil, so any later access panics instead of reading recycled
// state.
func (a *array) release() {
	for w, word := range a.touched {
		for ; word != 0; word &= word - 1 {
			set := w*64 + bits.TrailingZeros64(word)
			for i := set * a.ways; i < (set+1)*a.ways; i++ {
				a.lines[i] = emptyLine
				a.tags[i] = 0
			}
		}
	}
	sl := a.slab
	a.slab, a.lines, a.tags, a.touched = nil, nil, nil, nil
	slabPool(len(sl.lines)).Put(sl)
}

// setBankLocal switches set selection to bank-local indexing (interleave 0
// switches it back to the raw line number). L3 banks need this: a bank only
// ever sees addresses whose interleave chunk is congruent to its bank id, so
// indexing sets by the raw address would exercise a tiny, aliased subset of
// the sets. Numbering the lines a bank actually owns (chunk-major within the
// interleaving) uses all of them.
func (a *array) setBankLocal(interleaveBytes, tiles int) {
	a.interleave, a.tiles = uint64(interleaveBytes), uint64(tiles)
	isPow2 := func(v uint64) bool { return v&(v-1) == 0 }
	a.pow2 = isPow2(a.lineBytes) && isPow2(uint64(a.sets)) && isPow2(a.tiles) && isPow2(a.interleave)
	a.lineShift = uint(bits.TrailingZeros64(a.lineBytes))
	a.chunkShift = uint(bits.TrailingZeros64(a.interleave))
	a.tileShift = uint(bits.TrailingZeros64(a.tiles))
}

func (a *array) setOf(lineAddr uint64) int {
	if !a.pow2 {
		return a.setOfDiv(lineAddr)
	}
	idx := lineAddr >> a.lineShift
	if a.interleave != 0 {
		idx = lineAddr>>a.chunkShift>>a.tileShift<<(a.chunkShift-a.lineShift) +
			(lineAddr&(a.interleave-1))>>a.lineShift
	}
	return int(idx & uint64(a.sets-1))
}

// setOfDiv is setOf for any geometry, in the division form that defines it.
func (a *array) setOfDiv(lineAddr uint64) int {
	idx := lineAddr / a.lineBytes
	if a.interleave != 0 {
		chunk := lineAddr / a.interleave
		idx = (chunk/a.tiles)*(a.interleave/a.lineBytes) + (lineAddr%a.interleave)/a.lineBytes
	}
	return int(idx % uint64(a.sets))
}

// lookup returns the line holding lineAddr, or nil. Only the set's tags are
// scanned: a 16-way miss reads two host cache lines, not eight.
func (a *array) lookup(lineAddr uint64) *line {
	base := a.setOf(lineAddr) * a.ways
	want := lineAddr | 1
	for i, tag := range a.tags[base : base+a.ways] {
		if tag == want {
			return &a.lines[base+i]
		}
	}
	return nil
}

// indexOf returns the way index of a line of this array.
func (a *array) indexOf(l *line) int {
	off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(a.lines)))
	return int(off / unsafe.Sizeof(line{}))
}

// addrOf returns the line address the way holds; ok is false for an empty
// way. Eviction code asks this of the slot victim returned.
func (a *array) addrOf(l *line) (lineAddr uint64, ok bool) {
	tag := a.tags[a.indexOf(l)]
	return tag &^ 1, tag != 0
}

// touch promotes a line on hit (RRIP near re-reference).
func (a *array) touch(l *line) { l.rrpv = 0 }

// victim selects the replacement victim in lineAddr's set: an empty way if
// one exists, otherwise the RRIP victim (aging RRPVs as needed).
func (a *array) victim(lineAddr uint64) *line {
	base := a.setOf(lineAddr) * a.ways
	for i, tag := range a.tags[base : base+a.ways] {
		if tag == 0 {
			return &a.lines[base+i]
		}
	}
	ls := a.lines[base : base+a.ways]
	for {
		for i := range ls {
			if ls[i].rrpv >= rrpvMax {
				return &ls[i]
			}
		}
		for i := range ls {
			ls[i].rrpv++
		}
	}
}

// insert installs lineAddr into the slot previously returned by victim,
// resetting metadata and applying the bimodal insertion policy. The caller
// must have handled the victim's eviction first.
func (a *array) insert(slot *line, lineAddr uint64) {
	set := a.setOf(lineAddr)
	a.touched[set>>6] |= 1 << (set & 63)
	a.fillCount++
	rrpv := uint8(rrpvMax) // distant
	if a.brripLongEvery <= 1 || a.fillCount%a.brripLongEvery == 0 {
		rrpv = rrpvMax - 1 // long
	}
	a.tags[a.indexOf(slot)] = lineAddr | 1
	*slot = line{
		state:    stInvalid, // caller sets
		rrpv:     rrpv,
		streamID: noStream,
		owner:    -1,
	}
}

// invalidate drops a line.
func (a *array) invalidate(l *line) {
	a.tags[a.indexOf(l)] = 0
	*l = emptyLine
}

// forEachValid visits every held line with its address (used by tests and
// drain logic).
func (a *array) forEachValid(fn func(lineAddr uint64, l *line)) {
	for i, tag := range a.tags {
		if tag != 0 {
			fn(tag&^1, &a.lines[i])
		}
	}
}
