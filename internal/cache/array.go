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

	"streamfloat/internal/stream"
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

// line is one cache line's metadata, the 8 bytes every level needs. Which
// address a way holds, if any, is mostly not here but in the array's tag
// slice, so a lookup that misses never reads a line: a 4-byte tag holds the
// low 31 bits of the line number and hi the rest, read only once the tag
// matches. The MESI state and the flags share one byte (see line.state and
// line.has). The L3 directory (sharers, owner) is not here either: only bank
// arrays hold it, in slab side slices indexed like tags, so a private way
// costs 12 bytes with its tag and a bank way 22.
type line struct {
	hi       uint32 // line number bits 31 and up (see tagOf)
	streamID int16  // stream that brought the line in (noStream if none)
	rrpv     uint8
	bits     uint8 // MESI state (stateMask) | flags
}

// stateMask is the bits of line.bits holding the MESI state.
const stateMask uint8 = 3

// flag is one of line.bits above the MESI state; the top two are never set.
type flag uint8

const (
	fDirty  flag = 4 << iota // newer than the next level's copy
	fReused                  // hit at least once after fill
	fPF                      // brought in by a prefetcher and not yet demanded
	fStream                  // brought in by a compiler-identified stream access
)

func (l *line) state() state     { return state(l.bits & stateMask) }
func (l *line) setState(s state) { l.bits = l.bits&^stateMask | uint8(s) }
func (l *line) has(f flag) bool  { return l.bits&uint8(f) != 0 }
func (l *line) set(f flag, on bool) {
	if on {
		l.bits |= uint8(f)
	} else {
		l.bits &^= uint8(f)
	}
}

// emptyLine is what invalidate leaves in a way. Whether a way holds a line
// is its tag's business, not the line's: a way of a freshly handed-out
// block keeps whatever its storage held last, and insert overwrites it.
var emptyLine = line{streamID: noStream}

// noOwner is the directory owner of a line no tile holds in E/M.
const noOwner = -1

// poisonLine, poisonSharers and poisonOwner are what a slab's ways read as
// after growth under a sanitizer has moved them: no field is a value the
// model writes (streamID and owner name no stream or tile, hi no line
// number, rrpv is past rrpvMax, the top bits of line.bits are never set, and
// every sharer bit is set), so a *line or way index kept across the probe
// that moved it derails the run instead of reading a plausible copy.
var poisonLine = line{hi: 0x5a5a5a5a, streamID: 0x5a5a, rrpv: 0xff, bits: 0xff}

const (
	poisonSharers = ^uint64(0)
	poisonOwner   = 0x5a5a
)

// slab is the storage of one array. The blocks of lines and tags hold the
// sets in the order the run first filled them, ways consecutive, and dir maps
// a set to its block: dir[set] is 1 + the set's block, or 0 if the set was
// never filled. tags[i] is tagOf the address way i holds and 0 for an empty
// way, so a 16-way set's tags fill one 64-byte host cache line. A bank's
// slab also holds way i's directory entry in sharers[i] (the tiles holding
// the line in S) and owner[i] (the tile holding it in E/M, or noOwner);
// a private array's has neither.
//
// A slab's capacity (len(lines)) is a whole number of blocks, up to the
// array's sets×ways, and follows what runs filled, not the geometry: host
// memory goes to the sets a workload uses. It survives recycling, so a
// sweep's machines stop growing after its first points.
type slab struct {
	lines   []line
	tags    []uint32
	sharers []uint64 // banks only
	owner   []int16  // banks only
	dir     []int32
}

// Line addresses are stream.LineBytes-aligned (LineAddr), so an address is
// its line number la >> lineBits: 58 bits, split between a tag and line.hi.
const (
	lineBits = 6  // log2(stream.LineBytes)
	loBits   = 31 // line number bits a tag holds
	tagHeld  = 1 << loBits
)

// lineBits must stay log2(stream.LineBytes): either constant overflows uint,
// and the package fails to compile, if the two part.
const (
	_ uint = 1<<lineBits - stream.LineBytes
	_ uint = stream.LineBytes - 1<<lineBits
)

// tagOf returns la's tag: tagHeld (bit 31, which tells line 0 from an empty
// way) over the low 31 bits of its line number.
func tagOf(la uint64) uint32 { return uint32(la>>lineBits)&(tagHeld-1) | tagHeld }

// hiOf returns the line number bits of la a tag does not hold.
func hiOf(la uint64) uint32 { return uint32(la >> lineBits >> loBits) }

// geometry keys the slab pools: a slab fits any array with its sets and ways
// and, for a bank (directory), its directory entries.
type geometry struct {
	sets, ways int
	directory  bool
}

// slabPools recycles slabs between machines, one sync.Pool per geometry (a
// machine has three: L1, L2, L3 bank). A pooled slab's dir is all zero; its
// blocks hold whatever the last run left, and probe zeroes a block's tags
// before it hands the block out, so a recycled slab is indistinguishable
// from a fresh one.
var slabPools sync.Map // geometry -> *sync.Pool of *slab

func slabPool(g geometry) *sync.Pool {
	if p, ok := slabPools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := slabPools.LoadOrStore(g, new(sync.Pool))
	return p.(*sync.Pool)
}

// newSlab returns a slab for g with an empty directory: a pooled one of any
// capacity if there is one, else a fresh one with no blocks.
func newSlab(g geometry) *slab {
	if !poolBypass.Load() {
		if sl, ok := slabPool(g).Get().(*slab); ok {
			return sl
		}
	}
	return &slab{dir: make([]int32, g.sets)}
}

// poolBypass, while set, makes newSlab build every slab fresh.
var poolBypass atomic.Bool

// SetPoolBypass is a test hook, not an option: it makes every newArray start
// from a fresh, empty slab until the returned restore function runs, so a
// test can hold a recycled run against a pristine one. It is exported only
// because that oracle (TestRecycledStateInvisible) lives in internal/system.
func SetPoolBypass(on bool) (restore func()) {
	prev := poolBypass.Swap(on)
	return func() { poolBypass.Store(prev) }
}

// array is a set-associative cache array with (Bimodal) RRIP replacement.
type array struct {
	sets      int
	ways      int
	directory bool // an L3 bank: sharers and owner hold each way's directory entry
	slab      *slab
	lines     []line   // slab.lines
	tags      []uint32 // slab.tags; probe, insert and invalidate are the only writers
	sharers   []uint64 // slab.sharers (banks only)
	owner     []int16  // slab.owner (banks only)
	dir       []int32  // slab.dir
	blocks    int      // blocks handed out; the rest of the slab is stale
	// checked is set under an attached sanitizer (see check).
	checked bool
	// brripLongEvery inserts at "long" re-reference once every N fills
	// (N = round(1/p)); 1 means always long (SRRIP).
	brripLongEvery int
	fillCount      int

	// Set selection: set = index % sets, where index is the line number
	// (lineAddr / stream.LineBytes) or, after setBankLocal, the bank-local
	// line number. pow2 says every divisor is a power of two (Table III
	// always is), so setOf shifts and masks instead of dividing by run-time
	// values.
	interleave, tiles uint64 // bank-local indexing; interleave 0 = raw line number
	pow2              bool
	chunkShift        uint // log2(interleave)
	tileShift         uint // log2(tiles)
}

// newArray returns a private (L1 or L2) array, indexed by line number.
func newArray(sizeBytes, ways int, brripProb float64) *array {
	return buildArray(sizeBytes, ways, brripProb, false)
}

// newBank returns an L3 bank's array: a directory entry beside every way,
// and bank-local set indexing over tiles banks interleaved at
// interleaveBytes (see setBankLocal; 0 indexes by line number).
func newBank(sizeBytes, ways int, brripProb float64, interleaveBytes, tiles int) *array {
	a := buildArray(sizeBytes, ways, brripProb, true)
	a.setBankLocal(interleaveBytes, tiles)
	return a
}

func buildArray(sizeBytes, ways int, brripProb float64, directory bool) *array {
	sets := sizeBytes / (ways * stream.LineBytes)
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
		directory:      directory,
		slab:           newSlab(geometry{sets, ways, directory}),
		brripLongEvery: longEvery,
	}
	sl := a.slab
	a.lines, a.tags, a.sharers, a.owner, a.dir = sl.lines, sl.tags, sl.sharers, sl.owner, sl.dir
	a.setBankLocal(0, 1)
	return a
}

// release clears the directory and hands the slab, grown storage included,
// back for the next machine's newArray. The array is unusable afterwards:
// its storage is nil, so any later access panics instead of reading
// recycled state.
func (a *array) release() {
	clear(a.dir)
	sl := a.slab
	sl.lines, sl.tags, sl.sharers, sl.owner = a.lines, a.tags, a.sharers, a.owner
	a.slab, a.lines, a.tags, a.sharers, a.owner, a.dir = nil, nil, nil, nil, nil, nil
	slabPool(geometry{a.sets, a.ways, a.directory}).Put(sl)
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
	a.pow2 = isPow2(uint64(a.sets)) && isPow2(a.tiles) && isPow2(a.interleave)
	a.chunkShift = uint(bits.TrailingZeros64(a.interleave))
	a.tileShift = uint(bits.TrailingZeros64(a.tiles))
}

func (a *array) setOf(lineAddr uint64) int {
	if !a.pow2 {
		return a.setOfDiv(lineAddr)
	}
	idx := lineAddr >> lineBits
	if a.interleave != 0 {
		idx = lineAddr>>a.chunkShift>>a.tileShift<<(a.chunkShift-lineBits) +
			(lineAddr&(a.interleave-1))>>lineBits
	}
	return int(idx & uint64(a.sets-1))
}

// setOfDiv is setOf for any geometry, in the division form that defines it.
func (a *array) setOfDiv(lineAddr uint64) int {
	idx := lineAddr / stream.LineBytes
	if a.interleave != 0 {
		chunk := lineAddr / a.interleave
		idx = (chunk/a.tiles)*(a.interleave/stream.LineBytes) + (lineAddr%a.interleave)/stream.LineBytes
	}
	return int(idx % uint64(a.sets))
}

// lookup returns the line holding lineAddr, or nil. A set never filled
// answers from the directory alone; otherwise the set's tags are scanned (a
// 16-way set's are one host cache line) and a line is read only where its
// tag matches.
func (a *array) lookup(lineAddr uint64) *line {
	b := int(a.dir[a.setOf(lineAddr)])
	if b == 0 {
		return nil
	}
	base := (b - 1) * a.ways
	want, hi := tagOf(lineAddr), hiOf(lineAddr)
	for i, tag := range a.tags[base : base+a.ways] {
		if tag == want && a.lines[base+i].hi == hi {
			return &a.lines[base+i]
		}
	}
	return nil
}

// indexOf returns the way index of a line of this array: its slot in tags
// and, in a bank, in sharers and owner.
func (a *array) indexOf(l *line) int {
	off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(a.lines)))
	return int(off / unsafe.Sizeof(line{}))
}

// addrOf returns the line address the way holds; ok is false for an empty
// way. Eviction code asks this of the slot a missing probe returned.
func (a *array) addrOf(l *line) (lineAddr uint64, ok bool) {
	tag := a.tags[a.indexOf(l)]
	if tag == 0 {
		return 0, false // an empty way's line is stale: not read
	}
	return addrFrom(tag, l.hi), true
}

// addrFrom rebuilds a held way's line address from its tag and line.hi.
func addrFrom(tag, hi uint32) uint64 {
	return (uint64(hi)<<loBits | uint64(tag&(tagHeld-1))) << lineBits
}

// touch promotes a line on hit (RRIP near re-reference).
func (a *array) touch(l *line) { l.rrpv = 0 }

// probe looks lineAddr up and, on a miss, picks its replacement victim in
// the same pass over the set's tags: it returns the line holding lineAddr
// with hit true, or else the slot to fill, an empty way if one exists,
// otherwise the RRIP victim (aging RRPVs as needed). The first probe that
// misses in a set gives it the slab's next block, growing the slab if the
// run has filled as many sets as it holds.
//
// Growth moves the slab, so a *line from this array (lookup's or probe's)
// is valid only until the next probe on the same array: re-lookup after one
// instead of keeping the pointer. Probes on other arrays, and every other
// operation, leave it valid. Under a sanitizer the slab regrows from empty
// in every run and each growth poisons the lines it moved (see check), so a
// pointer kept too long derails the run, as a golden diff or a probe
// failure, instead of going unnoticed.
func (a *array) probe(lineAddr uint64) (l *line, hit bool) {
	set := a.setOf(lineAddr)
	b := int(a.dir[set])
	if b == 0 {
		b = a.newBlock()
		a.dir[set] = int32(b)
		return &a.lines[(b-1)*a.ways], false
	}
	base := (b - 1) * a.ways
	want, hi := tagOf(lineAddr), hiOf(lineAddr)
	empty := -1
	for i, tag := range a.tags[base : base+a.ways] {
		if tag == want && a.lines[base+i].hi == hi {
			return &a.lines[base+i], true
		}
		if tag == 0 && empty < 0 {
			empty = i
		}
	}
	if empty >= 0 {
		return &a.lines[base+empty], false
	}
	ls := a.lines[base : base+a.ways]
	for {
		for i := range ls {
			if ls[i].rrpv >= rrpvMax {
				return &ls[i], false
			}
		}
		for i := range ls {
			ls[i].rrpv++
		}
	}
}

// newBlock hands out the slab's next block, emptied, and returns 1 + its
// index. Zero tags are all an empty way needs: its line is never read
// before insert overwrites it.
func (a *array) newBlock() int {
	base := a.blocks * a.ways
	if base == len(a.lines) {
		a.grow()
	}
	a.blocks++
	clear(a.tags[base : base+a.ways])
	return a.blocks
}

// grow doubles the slab, up to the dense size, copying the blocks in use.
// Under a sanitizer it also poisons the ways it leaves behind, directory
// entries included.
func (a *array) grow() {
	n := min(max(2*a.blocks, 1), a.sets) * a.ways
	used := a.blocks * a.ways
	lines, tags := make([]line, n), make([]uint32, n)
	copy(lines, a.lines[:used])
	copy(tags, a.tags[:used])
	var sharers []uint64
	var owner []int16
	if a.directory {
		sharers, owner = make([]uint64, n), make([]int16, n)
		copy(sharers, a.sharers[:used])
		copy(owner, a.owner[:used])
	}
	if a.checked {
		for i := range a.lines {
			a.lines[i] = poisonLine
		}
		for i := range a.sharers {
			a.sharers[i], a.owner[i] = poisonSharers, poisonOwner
		}
	}
	a.lines, a.tags, a.sharers, a.owner = lines, tags, sharers, owner
}

// check attaches (on) or detaches the sanitizer's growth rule. A checked
// array drops the capacity its slab kept, so it regrows from empty in every
// run (at 1, 2, 4, ... filled sets) whatever the pool held, and every growth
// poisons what it moved. Call before the first probe.
func (a *array) check(on bool) {
	a.checked = on
	if on {
		a.lines, a.tags, a.sharers, a.owner = nil, nil, nil, nil
	}
}

// insert installs lineAddr into the slot a missing probe returned,
// resetting metadata and applying the bimodal insertion policy. The caller
// must have handled the victim's eviction first.
func (a *array) insert(slot *line, lineAddr uint64) {
	a.fillCount++
	rrpv := uint8(rrpvMax) // distant
	if a.brripLongEvery <= 1 || a.fillCount%a.brripLongEvery == 0 {
		rrpv = rrpvMax - 1 // long
	}
	i := a.indexOf(slot)
	a.tags[i] = tagOf(lineAddr)
	*slot = line{ // state stInvalid: the caller sets it
		hi:       hiOf(lineAddr),
		rrpv:     rrpv,
		streamID: noStream,
	}
	if a.directory {
		a.sharers[i], a.owner[i] = 0, noOwner
	}
}

// invalidate drops a line.
func (a *array) invalidate(l *line) {
	i := a.indexOf(l)
	a.tags[i] = 0
	*l = emptyLine
	if a.directory {
		a.sharers[i], a.owner[i] = 0, noOwner
	}
}

// forEachValid visits every held line with its address, in set order (used
// by tests and drain logic).
func (a *array) forEachValid(fn func(lineAddr uint64, l *line)) {
	for _, b := range a.dir {
		if b == 0 {
			continue
		}
		base := (int(b) - 1) * a.ways
		for i, tag := range a.tags[base : base+a.ways] {
			if tag != 0 {
				fn(addrFrom(tag, a.lines[base+i].hi), &a.lines[base+i])
			}
		}
	}
}
