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

// poisonLine, poisonSharers and poisonOwner are what an array's ways read
// as after a move under a sanitizer has left them: no field is a value the
// model writes (streamID and owner name no stream or tile, hi no line
// number, rrpv is past rrpvMax, the top bits of line.bits are never set, and
// every sharer bit is set), so a *line or way index kept across the probe
// that moved it derails the run instead of reading a plausible copy.
var poisonLine = line{hi: 0x5a5a5a5a, streamID: 0x5a5a, rrpv: 0xff, bits: 0xff}

const (
	poisonSharers = ^uint64(0)
	poisonOwner   = 0x5a5a
)

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

// slab is the storage of one array: lines and tags, and in a bank sharers
// and owner, all indexed by way, plus the set directory and the free lists.
// tags[i] is tagOf the address way i holds and 0 for an empty way. A bank's
// sharers[i] is the tiles holding way i's line in S and owner[i] the tile
// holding it in E/M, or noOwner; a private array's slab has neither.
//
// A set holds a block of ways: 1, 2, 4, ... ways, doubling when a fill
// finds the block full, up to the array's ways (a way count that is not a
// power of two gives every set all its ways at once). The ways are cut into
// chunks of the array's ways, and blocks are split from chunks buddy-style,
// so a block of n ways starts at a multiple of n and a 16-way set's tags
// fill one 64-byte host cache line. dir[set] is the set's block,
// offset<<sizeBits | size, or 0 if the set was never filled. So host memory
// follows the lines a run holds, not Table III's geometry.
//
// A slab survives recycling with its capacity (len(lines)), so a sweep's
// machines stop growing after its first points.
type slab struct {
	lines   []line
	tags    []uint32
	sharers []uint64 // banks only
	owner   []int16  // banks only
	dir     []uint32
	free    [][]int32
}

// geometry keys the slab pools: a slab fits any array with its sets and ways
// and, for a bank (directory), its directory entries.
type geometry struct {
	sets, ways int
	directory  bool
}

// slabPools recycles slabs between machines, one sync.Pool per geometry (a
// machine has three: L1, L2, L3 bank). A pooled slab's dir is all zero and
// its free lists are empty; its ways hold whatever the last run left. No
// set reaches a way before alloc has zeroed its block's tags, and the
// allocator reads a tag only at the head of a block it split or freed in
// this run, so a recycled slab is indistinguishable from a fresh one.
var slabPools sync.Map // geometry -> *sync.Pool of *slab

func slabPool(g geometry) *sync.Pool {
	if p, ok := slabPools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := slabPools.LoadOrStore(g, new(sync.Pool))
	return p.(*sync.Pool)
}

// newSlab returns a slab for g with an empty directory: a pooled one of any
// capacity if there is one, else a fresh one with no ways.
func newSlab(g geometry) *slab {
	if !poolBypass.Load() {
		if sl, ok := slabPool(g).Get().(*slab); ok {
			return sl
		}
	}
	return &slab{dir: make([]uint32, g.sets), free: make([][]int32, bits.Len(uint(g.ways)))}
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
	tags      []uint32 // slab.tags; probe, insert, invalidate and the block allocator are the only writers
	sharers   []uint64 // slab.sharers (banks only)
	owner     []int16  // slab.owner (banks only)
	dir       []uint32 // slab.dir
	sizeBits  uint     // dir[set] >> sizeBits is the block's offset
	sizeMask  uint32   // dir[set] & sizeMask is its size
	first     int      // a set's first block size: 1, or ways if not a power of two
	chunks    int      // chunks handed out; the rest of the slab is stale
	// free[k] (slab.free) stacks the offsets of free 2^k-way blocks. An
	// entry is only a hint: the block is free while its first tag is
	// freeTag (see take).
	free [][]int32
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
	first := 1
	if ways&(ways-1) != 0 {
		first = ways
	}
	sizeBits := uint(bits.Len(uint(ways)))
	a := &array{
		sets:           sets,
		ways:           ways,
		directory:      directory,
		slab:           newSlab(geometry{sets, ways, directory}),
		sizeBits:       sizeBits,
		sizeMask:       1<<sizeBits - 1,
		first:          first,
		brripLongEvery: longEvery,
	}
	sl := a.slab
	a.lines, a.tags, a.sharers, a.owner, a.dir, a.free = sl.lines, sl.tags, sl.sharers, sl.owner, sl.dir, sl.free
	a.setBankLocal(0, 1)
	return a
}

// release clears the directory and the free lists and hands the slab, grown
// storage included, back for the next machine's newArray. The array is
// unusable afterwards: its storage is nil, so any later access panics
// instead of reading recycled state.
func (a *array) release() {
	clear(a.dir)
	for k := range a.free {
		a.free[k] = a.free[k][:0]
	}
	sl := a.slab
	sl.lines, sl.tags, sl.sharers, sl.owner, sl.free = a.lines, a.tags, a.sharers, a.owner, a.free
	a.slab, a.lines, a.tags, a.sharers, a.owner, a.dir, a.free = nil, nil, nil, nil, nil, nil, nil
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

// block decodes a dir entry: the set's block starts at way base and has n
// ways.
func (a *array) block(d uint32) (base, n int) {
	return int(d >> (a.sizeBits & 31)), int(d & a.sizeMask)
}

// lookup returns the line holding lineAddr, or nil. A set never filled
// answers from the directory alone; otherwise the set's tags are scanned (a
// 16-way set's are one host cache line) and a line is read only where its
// tag matches.
func (a *array) lookup(lineAddr uint64) *line {
	d := a.dir[a.setOf(lineAddr)]
	if d == 0 {
		return nil
	}
	base, n := a.block(d)
	want, hi := tagOf(lineAddr), hiOf(lineAddr)
	for i, tag := range a.tags[base : base+n] {
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
// misses in a set gives it a block; a miss in a full block smaller than
// ways moves the set to a block twice the size and fills its first new way.
// That is the way a dense array would fill: a fill takes the lowest empty
// way, so the ways a set has ever used are a prefix of its ways, and the
// victim search runs only once all of them are held.
//
// A move (and the slab growth a new block may need) relocates lines, so a
// *line from this array (lookup's or probe's) is valid only until the next
// probe on the same array: re-lookup after one instead of keeping the
// pointer. Probes on other arrays, and every other operation, leave it
// valid. Under a sanitizer each move poisons the ways it left (see check),
// so a pointer kept too long derails the run, as a golden diff or a probe
// failure, instead of going unnoticed.
func (a *array) probe(lineAddr uint64) (l *line, hit bool) {
	set := a.setOf(lineAddr)
	d := a.dir[set]
	if d == 0 {
		base := a.alloc(a.first)
		a.dir[set] = uint32(base)<<a.sizeBits | uint32(a.first)
		return &a.lines[base], false
	}
	base, n := a.block(d)
	want, hi := tagOf(lineAddr), hiOf(lineAddr)
	empty := -1
	for i, tag := range a.tags[base : base+n] {
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
	if n < a.ways {
		return &a.lines[a.move(set, base, n)+n], false
	}
	ls := a.lines[base : base+n]
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

// move gives set, whose n-way block at base is full, a block of 2n ways
// holding the same ways in the same order, and frees the old block (after
// poisoning it under a sanitizer). It returns the new block's offset.
func (a *array) move(set, base, n int) int {
	to := a.alloc(2 * n)
	copy(a.lines[to:to+n], a.lines[base:base+n])
	copy(a.tags[to:to+n], a.tags[base:base+n])
	if a.directory {
		copy(a.sharers[to:to+n], a.sharers[base:base+n])
		copy(a.owner[to:to+n], a.owner[base:base+n])
	}
	a.dir[set] = uint32(to)<<a.sizeBits | uint32(2*n)
	if a.checked {
		a.poison(base, n)
	}
	a.freeBlock(base, n)
	return to
}

// freeTag marks the first way of a free n-way block: neither 0 nor held,
// so no tag of a block in use reads as it.
func freeTag(n int) uint32 { return uint32(bits.Len(uint(n))) }

// alloc returns the offset of a block of n ways (a power of two up to
// ways, or ways), every way empty. Zero tags are all an empty way needs:
// its line is never read before insert overwrites it.
func (a *array) alloc(n int) int {
	off := a.take(n)
	clear(a.tags[off : off+n])
	return off
}

// take returns a free n-way block: the last one freed, else the lower half
// of a 2n-way block whose upper half it frees, else a new chunk. A stacked
// offset whose first tag is not freeTag(n) is stale (the block has since
// merged into a larger one or been handed out) and is dropped.
func (a *array) take(n int) int {
	k := bits.Len(uint(n)) - 1
	for len(a.free[k]) > 0 {
		off := int(a.free[k][len(a.free[k])-1])
		a.free[k] = a.free[k][:len(a.free[k])-1]
		if a.tags[off] == freeTag(n) {
			return off
		}
	}
	if n == a.ways {
		return a.newChunk()
	}
	off := a.take(2 * n)
	a.markFree(off+n, n)
	return off
}

// freeBlock frees the n-way block at off, merging it with its buddy (the
// other half of the 2n-way block it was split from) while that is free.
func (a *array) freeBlock(off, n int) {
	for n < a.ways {
		buddy := off ^ n
		if a.tags[buddy] != freeTag(n) {
			break
		}
		a.tags[buddy] = 0 // its stacked offset goes stale
		off &^= n
		n *= 2
	}
	a.markFree(off, n)
}

func (a *array) markFree(off, n int) {
	a.tags[off] = freeTag(n)
	k := bits.Len(uint(n)) - 1
	a.free[k] = append(a.free[k], int32(off))
}

// newChunk hands out the slab's next unused chunk, growing the slab if every
// chunk is out.
func (a *array) newChunk() int {
	off := a.chunks * a.ways
	if off == len(a.lines) {
		a.grow()
	}
	a.chunks++
	return off
}

// grow doubles the slab's chunks, copying the ones handed out, up to one
// chunk per set. Past that, which buddy fragments can force near full
// occupancy (scale-1 runs need one chunk more), it doubles only the chunks
// past one per set. Under a sanitizer it also poisons the ways it leaves
// behind.
func (a *array) grow() {
	c := min(max(2*a.chunks, 1), a.sets)
	if c <= a.chunks {
		c = a.chunks + max(1, a.chunks-a.sets)
	}
	n, used := c*a.ways, a.chunks*a.ways
	if uint64(n) > 1<<(32-a.sizeBits) {
		panic("cache: array too large for its set directory")
	}
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
		a.poison(0, len(a.lines))
	}
	a.lines, a.tags, a.sharers, a.owner = lines, tags, sharers, owner
}

// poison overwrites n ways from off, directory entries included, with
// values no model code writes. Their tags are left alone: the allocator
// keeps its marks there.
func (a *array) poison(off, n int) {
	for i := off; i < off+n; i++ {
		a.lines[i] = poisonLine
	}
	if a.directory {
		for i := off; i < off+n; i++ {
			a.sharers[i], a.owner[i] = poisonSharers, poisonOwner
		}
	}
}

// check attaches (on) or detaches the sanitizer's move rule. A checked
// array drops the capacity its slab kept, so it regrows from empty in every
// run whatever the pool held, and it poisons the ways every block move and
// every slab growth leave. Call before the first probe.
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
	for _, d := range a.dir {
		if d == 0 {
			continue
		}
		base, n := a.block(d)
		for i, tag := range a.tags[base : base+n] {
			if tag != 0 {
				fn(addrFrom(tag, a.lines[base+i].hi), &a.lines[base+i])
			}
		}
	}
}
