// Package cache implements the three-level cache hierarchy: private L1/L2
// caches per tile, shared static-NUCA L3 banks with a directory-based MESI
// protocol (plus the paper's GetU uncached-read extension), RRIP replacement,
// MSHR merging, and the eviction/reuse accounting behind Fig 2.
package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"
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

// line is one cache line's metadata. The directory fields (sharers, owner)
// are only meaningful in L3 bank arrays. Fields are ordered widest first so
// the struct packs into 32 bytes: two lines per host cache line.
type line struct {
	addr uint64 // full line-aligned address; identifies the line

	// Directory state (L3 only).
	sharers uint64 // bitmask of tiles with the line in S
	owner   int16  // tile holding the line in E/M, or -1

	streamID int16 // stream that brought the line in (noStream if none)
	valid    bool
	dirty    bool
	reused   bool // hit at least once after fill
	pf       bool // brought in by a prefetcher and not yet demanded
	stream   bool // brought in by a compiler-identified stream access
	state    state
	rrpv     uint8
}

// emptyLine is the state of a way that holds nothing.
var emptyLine = line{owner: -1, streamID: noStream}

// slabPools recycles line slabs between machines, one sync.Pool per slab
// length (a machine has three: L1, L2, L3 bank). Every pooled slab holds
// only emptyLine, so a recycled slab is indistinguishable from a fresh one.
var slabPools sync.Map // int (lines) -> *sync.Pool of *[]line

func slabPool(n int) *sync.Pool {
	if p, ok := slabPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := slabPools.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}

// newSlab returns n empty lines, recycled if the pool has a slab that size.
func newSlab(n int) []line {
	if !poolBypass.Load() {
		if p, ok := slabPool(n).Get().(*[]line); ok {
			return *p
		}
	}
	ls := make([]line, n)
	for i := range ls {
		ls[i] = emptyLine
	}
	return ls
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
	lines     []line
	// touched has bit s set once set s has been filled; release resets only
	// those sets. insert is the only writer of line.valid, so a set whose bit
	// is clear still holds what newSlab handed out.
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
		lines:          newSlab(sets * ways),
		touched:        make([]uint64, (sets+63)/64),
		brripLongEvery: longEvery,
	}
	a.setBankLocal(0, 1)
	return a
}

// release empties every set that was ever filled and hands the slab back
// for the next machine's newArray. The array is unusable afterwards: lines
// is nil, so any later access panics instead of reading recycled state.
func (a *array) release() {
	for w, word := range a.touched {
		for ; word != 0; word &= word - 1 {
			set := w*64 + bits.TrailingZeros64(word)
			ls := a.lines[set*a.ways : (set+1)*a.ways]
			for i := range ls {
				ls[i] = emptyLine
			}
		}
	}
	ls := a.lines
	a.lines, a.touched = nil, nil
	slabPool(len(ls)).Put(&ls)
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

// lookup returns the line holding lineAddr, or nil.
func (a *array) lookup(lineAddr uint64) *line {
	set := a.setOf(lineAddr)
	ls := a.lines[set*a.ways : (set+1)*a.ways]
	for i := range ls {
		if ls[i].valid && ls[i].addr == lineAddr {
			return &ls[i]
		}
	}
	return nil
}

// touch promotes a line on hit (RRIP near re-reference).
func (a *array) touch(l *line) { l.rrpv = 0 }

// victim selects the replacement victim in lineAddr's set: an invalid way if
// one exists, otherwise the RRIP victim (aging RRPVs as needed).
func (a *array) victim(lineAddr uint64) *line {
	set := a.setOf(lineAddr)
	ls := a.lines[set*a.ways : (set+1)*a.ways]
	for i := range ls {
		if !ls[i].valid {
			return &ls[i]
		}
	}
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
	*slot = line{
		addr:     lineAddr,
		valid:    true,
		state:    stInvalid, // caller sets
		rrpv:     rrpv,
		streamID: noStream,
		owner:    -1,
	}
}

// invalidate drops a line.
func (a *array) invalidate(l *line) {
	*l = emptyLine
}

// forEachValid visits every valid line (used by tests and drain logic).
func (a *array) forEachValid(fn func(*line)) {
	for i := range a.lines {
		if a.lines[i].valid {
			fn(&a.lines[i])
		}
	}
}
