package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/mem"
	"streamfloat/internal/noc"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
)

// rig bundles a small hierarchy for protocol tests.
type rig struct {
	eng  *event.Engine
	st   *stats.Stats
	cfg  config.Config
	mesh *noc.Mesh
	sys  *System
}

func newRig(t testing.TB, mutate func(*config.Config)) *rig {
	cfg := config.Default()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := event.New()
	st := &stats.Stats{}
	mesh := noc.New(eng, st, cfg.MeshWidth, cfg.MeshHeight, cfg.LinkBits, cfg.RouterLatency, cfg.LinkLatency)
	dram := mem.NewDRAM(eng, st, cfg.DRAMLatency, cfg.DRAMBandwidthBpc, cfg.MemControllerTiles())
	sys := NewSystem(eng, st, cfg, mesh, dram)
	return &rig{eng: eng, st: st, cfg: cfg, mesh: mesh, sys: sys}
}

// access runs one access to completion and returns its latency.
func (r *rig) access(tile int, addr uint64, kind Kind) event.Cycle {
	start := r.eng.Now()
	var done event.Cycle
	fired := false
	r.sys.Access(tile, addr, kind, NoMeta, func(now event.Cycle) {
		done = now
		fired = true
	})
	r.eng.Run(0)
	if !fired && (kind == Read || kind == Write) {
		panic("demand access did not complete")
	}
	return done - start
}

func TestColdMissThenHit(t *testing.T) {
	r := newRig(t, nil)
	miss := r.access(0, 0x100000, Read)
	hit := r.access(0, 0x100000, Read)
	if hit >= miss {
		t.Errorf("hit (%d) not faster than cold miss (%d)", hit, miss)
	}
	if hit != event.Cycle(r.cfg.L1.LatCycles) {
		t.Errorf("L1 hit latency = %d, want %d", hit, r.cfg.L1.LatCycles)
	}
	if r.st.L1Hits != 1 || r.st.L1Misses != 1 {
		t.Errorf("L1 hits/misses = %d/%d", r.st.L1Hits, r.st.L1Misses)
	}
	if r.st.DRAMReads != 1 {
		t.Errorf("dram reads = %d", r.st.DRAMReads)
	}
}

func TestSecondTileHitsL3(t *testing.T) {
	r := newRig(t, nil)
	r.access(0, 0x200000, Read)
	before := r.st.DRAMReads
	r.access(5, 0x200000, Read)
	if r.st.DRAMReads != before {
		t.Error("second tile's read should hit L3, not DRAM")
	}
	if r.st.L3Hits == 0 {
		t.Error("no L3 hit recorded")
	}
}

func TestExclusiveGrantThenSilentUpgrade(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0x300000)
	r.access(3, addr, Read) // sole reader: E
	l2 := r.sys.tiles[3].l2.lookup(LineAddr(addr))
	if l2 == nil || l2.state != stExclusive {
		t.Fatalf("state after solo read = %v, want E", l2.state)
	}
	msgs := r.st.Messages[stats.ClassCtrlReq]
	r.access(3, addr, Write) // silent E->M
	if r.st.Messages[stats.ClassCtrlReq] != msgs {
		t.Error("E->M upgrade must not generate requests")
	}
	if l2.state != stModified {
		t.Errorf("state after write = %v, want M", l2.state)
	}
}

func TestSharedThenUpgrade(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0x400000)
	r.access(0, addr, Read)
	r.access(1, addr, Read) // now shared
	a := r.sys.tiles[0].l2.lookup(LineAddr(addr))
	b := r.sys.tiles[1].l2.lookup(LineAddr(addr))
	if a == nil || b == nil || a.state != stShared || b.state != stShared {
		t.Fatal("both sharers must be in S")
	}
	r.access(0, addr, Write) // upgrade invalidates tile 1
	if got := r.sys.tiles[1].l2.lookup(LineAddr(addr)); got != nil {
		t.Error("tile 1 not invalidated by upgrade")
	}
	if a.state != stModified {
		t.Errorf("tile 0 state = %v, want M", a.state)
	}
}

func TestOwnerForwardOnRead(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0x500000)
	r.access(2, addr, Write) // tile 2 owns M
	dramBefore := r.st.DRAMReads
	r.access(9, addr, Read) // must forward from owner
	if r.st.DRAMReads != dramBefore {
		t.Error("owner forward must not touch DRAM")
	}
	o := r.sys.tiles[2].l2.lookup(LineAddr(addr))
	if o == nil || o.state != stShared {
		t.Errorf("owner state = %v, want downgraded S", o.state)
	}
	n := r.sys.tiles[9].l2.lookup(LineAddr(addr))
	if n == nil || n.state != stShared {
		t.Error("requester must be S")
	}
}

func TestDirectoryInvariant(t *testing.T) {
	// Random reads/writes from random tiles: at most one modified copy,
	// and S copies never coexist with an M copy elsewhere.
	r := newRig(t, nil)
	rng := rand.New(rand.NewSource(42))
	lines := []uint64{0x600000, 0x600040, 0x600080, 0x6000c0}
	for i := 0; i < 300; i++ {
		addr := lines[rng.Intn(len(lines))]
		tile := rng.Intn(16)
		if rng.Intn(2) == 0 {
			r.access(tile, addr, Read)
		} else {
			r.access(tile, addr, Write)
		}
		for _, la := range lines {
			mCount, sCount := 0, 0
			for tIdx := 0; tIdx < 16; tIdx++ {
				if l := r.sys.tiles[tIdx].l2.lookup(la); l != nil {
					switch l.state {
					case stModified, stExclusive:
						mCount++
					case stShared:
						sCount++
					}
				}
			}
			if mCount > 1 {
				t.Fatalf("iteration %d: %d owners of %#x", i, mCount, la)
			}
			if mCount == 1 && sCount > 0 {
				t.Fatalf("iteration %d: owner and %d sharers coexist on %#x", i, sCount, la)
			}
		}
	}
}

func TestCleanEvictionSendsCoherenceCtrl(t *testing.T) {
	r := newRig(t, nil)
	// Stream enough lines through one tile to overflow its L2 and force
	// clean evictions.
	linesToStream := r.cfg.L2.SizeBytes/64 + 1024
	for i := 0; i < linesToStream; i++ {
		r.access(0, uint64(0x1000000+i*64), Read)
	}
	if r.st.L2Evictions == 0 {
		t.Fatal("no L2 evictions")
	}
	if r.st.L2EvictCleanNoReuse == 0 {
		t.Fatal("no clean-unreused evictions counted (Fig 2a)")
	}
	if r.st.Messages[stats.ClassCtrlCoh] == 0 {
		t.Fatal("clean evictions must notify the directory (PutS)")
	}
	if r.st.UnreusedCtrlFlitHops == 0 || r.st.UnreusedDataFlitHops == 0 {
		t.Fatal("Fig 2b attribution not collected")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, nil)
	linesToStream := r.cfg.L2.SizeBytes/64 + 1024
	for i := 0; i < linesToStream; i++ {
		r.access(0, uint64(0x2000000+i*64), Write)
	}
	if r.st.L2Evictions == 0 {
		t.Fatal("no evictions")
	}
	// Dirty evictions carry data; re-reading an evicted dirty line must hit
	// L3 (writeback preserved it), not DRAM... unless L3 also evicted it.
	if r.st.L2EvictCleanNoReuse != 0 {
		t.Error("dirty evictions misclassified as clean")
	}
}

func TestGetUDoesNotTrackSharer(t *testing.T) {
	r := newRig(t, nil)
	addr := LineAddr(0x700000)
	// Warm L3 via a read from tile 0, then drop tile 0's copies so the
	// directory has no owner.
	r.access(0, addr, Read)
	r.sys.invalidatePrivate(0, addr)
	if dl := r.sys.banks[r.cfg.HomeBank(addr)].lookup(addr); dl != nil {
		dl.owner = -1
		dl.sharers = 0
	}
	delivered := false
	r.sys.FloatRead(r.cfg.HomeBank(addr), addr, []int{7}, stats.L3FloatAffine, 64, nil,
		func(dst int, now event.Cycle) { delivered = dst == 7 })
	r.eng.Run(0)
	if !delivered {
		t.Fatal("GetU response not delivered")
	}
	dl := r.sys.banks[r.cfg.HomeBank(addr)].lookup(addr)
	if dl == nil {
		t.Fatal("line evicted from L3")
	}
	if dl.sharers != 0 || dl.owner != -1 {
		t.Error("GetU must not add the requester to the sharer vector (Fig 12)")
	}
	if got := r.sys.tiles[7].l2.lookup(addr); got != nil {
		t.Error("GetU data must not be cached in the requesting L2")
	}
}

func TestGetUForwardFromOwnerKeepsState(t *testing.T) {
	r := newRig(t, nil)
	addr := LineAddr(0x800000)
	r.access(4, addr, Write) // tile 4 owns M
	delivered := false
	r.sys.FloatRead(r.cfg.HomeBank(addr), addr, []int{11}, stats.L3FloatAffine, 64, nil,
		func(int, event.Cycle) { delivered = true })
	r.eng.Run(0)
	if !delivered {
		t.Fatal("no delivery")
	}
	o := r.sys.tiles[4].l2.lookup(addr)
	if o == nil || o.state != stModified {
		t.Errorf("owner state changed to %v by GetU forward (Fig 12c)", o)
	}
}

func TestFloatReadSubline(t *testing.T) {
	r := newRig(t, nil)
	addr := LineAddr(0x900000)
	r.sys.FloatRead(r.cfg.HomeBank(addr), addr, []int{3}, stats.L3FloatIndirect, 8, nil,
		func(int, event.Cycle) {})
	r.eng.Run(0)
	// An 8-byte subline response is a single flit; a full line would be 3.
	if r.st.Flits[stats.ClassData] > uint64(2*r.mesh.Hops(r.cfg.HomeBank(addr), 3)+4) {
		// The DRAM fill moves a full line bank<-ctrl; just check the
		// response leg was not 3 flits by bounding total data flits.
	}
	if r.st.L3Requests[stats.L3FloatIndirect] != 1 {
		t.Error("indirect request not counted")
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xa00000)
	done := 0
	for i := 0; i < 4; i++ {
		r.sys.Access(0, addr+uint64(i*4), Read, NoMeta, func(event.Cycle) { done++ })
	}
	r.eng.Run(0)
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
	if r.st.DRAMReads != 1 {
		t.Errorf("dram reads = %d, want 1 (merged)", r.st.DRAMReads)
	}
}

func TestBankFillMSHRMergesAcrossTiles(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xb00000)
	done := 0
	for tile := 0; tile < 8; tile++ {
		r.sys.Access(tile, addr, Read, NoMeta, func(event.Cycle) { done++ })
	}
	r.eng.Run(0)
	if done != 8 {
		t.Fatalf("completions = %d", done)
	}
	if r.st.DRAMReads != 1 {
		t.Errorf("dram reads = %d, want 1 (bank fill MSHR)", r.st.DRAMReads)
	}
}

func TestPrefetchFillAndUseful(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xc00000)
	r.access(0, addr, PrefL1)
	if r.st.PrefetchIssued != 1 {
		t.Fatalf("issued = %d", r.st.PrefetchIssued)
	}
	lat := r.access(0, addr, Read)
	if lat != event.Cycle(r.cfg.L1.LatCycles) {
		t.Errorf("post-prefetch latency = %d", lat)
	}
	if r.st.PrefetchUseful != 1 {
		t.Errorf("useful = %d", r.st.PrefetchUseful)
	}
}

func TestL2PrefetchSkipsL1(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xd00000)
	r.access(0, addr, PrefL2)
	if r.sys.tiles[0].l1.lookup(LineAddr(addr)) != nil {
		t.Error("L2 prefetch must not fill L1")
	}
	if r.sys.tiles[0].l2.lookup(LineAddr(addr)) == nil {
		t.Error("L2 prefetch must fill L2")
	}
}

func TestStreamTaggedLinesAndReuseObserver(t *testing.T) {
	r := newRig(t, nil)
	reused := 0
	r.sys.SetStreamReuseObserver(func(tile, sid int) { reused += sid })
	addr := uint64(0xe00000)
	var fired bool
	r.sys.Access(0, addr, StreamRead, Meta{StreamID: 7}, func(event.Cycle) { fired = true })
	r.eng.Run(0)
	if !fired {
		t.Fatal("stream read lost")
	}
	r.access(0, addr, Read) // reuse of a stream-tagged line
	if reused != 7 {
		t.Errorf("reuse observer got %d, want sid 7", reused)
	}
}

func TestPrivateHas(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xf00000)
	if r.sys.PrivateHas(0, addr) {
		t.Error("cold address reported present")
	}
	r.access(0, addr, Read)
	if !r.sys.PrivateHas(0, addr) {
		t.Error("cached address reported absent")
	}
	if r.sys.PrivateHas(1, addr) {
		t.Error("other tile must not have it")
	}
}

func TestRRIPVictimSelection(t *testing.T) {
	a := newArray(4*64*2, 2, 64, 1.0) // 4 sets x 2 ways
	// Fill both ways of set 0.
	s1 := a.victim(0)
	a.insert(s1, 0)
	s2 := a.victim(0)
	a.insert(s2, 4*64) // same set (wraps)
	// Touch the first: it becomes near; victim must be the second.
	a.touch(a.lookup(0))
	v := a.victim(8 * 64)
	if v.addr != 4*64 {
		t.Errorf("victim = %#x, want the untouched line", v.addr)
	}
}

// TestLineSizeof pins the packed layout: two lines per 64-byte host cache
// line, so a 16-way set scan touches 8 of them and a machine's slabs stay
// 20% smaller than with the fields in declaration-by-meaning order.
func TestLineSizeof(t *testing.T) {
	if sz := unsafe.Sizeof(line{}); sz > 32 {
		t.Fatalf("sizeof(line) = %d bytes, want <= 32", sz)
	}
}

// TestReleaseEmptiesTouchedSets checks the recycling invariant at its source:
// whatever an array went through, the slab it hands back holds only empty
// lines, and the array itself fails loudly if used again.
func TestReleaseEmptiesTouchedSets(t *testing.T) {
	a := newArray(64*64*4, 4, 64, 0.03) // 64 sets x 4 ways
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		la := uint64(rng.Intn(1<<14)) * 64
		if l := a.lookup(la); l != nil {
			a.touch(l)
			l.dirty, l.sharers, l.owner = true, rng.Uint64(), int16(rng.Intn(64))
			continue
		}
		slot := a.victim(la)
		a.insert(slot, la)
		slot.state, slot.stream, slot.streamID = stModified, true, 7
		if i%5 == 0 {
			a.invalidate(slot)
		}
	}
	slab := a.lines
	a.release()
	for i := range slab {
		if slab[i] != emptyLine {
			t.Fatalf("released slab line %d = %+v, want the empty line", i, slab[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("lookup on a released array must panic")
		}
	}()
	a.lookup(0)
}

func TestBankLocalIndexingUsesAllSets(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.L3InterleaveBytes = 1024 })
	bank := r.sys.banks[0]
	seen := map[int]bool{}
	// Addresses owned by bank 0 at 1 KiB interleave with a 4x4 mesh:
	// chunks 0, 16, 32, ... Each chunk holds 16 lines.
	for chunk := 0; chunk < 256; chunk++ {
		base := uint64(chunk) * 16 * 1024 // chunk*tiles*interleave
		for l := 0; l < 16; l++ {
			seen[bank.setOf(base+uint64(l*64))] = true
		}
	}
	if len(seen) < bank.sets {
		t.Errorf("bank uses %d/%d sets", len(seen), bank.sets)
	}
}

// TestSetOfShiftFormMatchesDivisionForm: the shift-and-mask set selection
// taken when the geometry is a power of two picks exactly the sets of the
// division form that defines it, for private and bank-local arrays; any other
// geometry (a 3x3 mesh, a 12-way-sized array) stays on the division form and
// matches the formula the L3 banks were built with before either existed.
func TestSetOfShiftFormMatchesDivisionForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		sizeBytes, ways, lineBytes, interleave, tiles int
		pow2                                          bool
	}{
		{32 << 10, 8, 64, 0, 1, true},      // Table III L1
		{256 << 10, 16, 64, 0, 1, true},    // Table III L2
		{1 << 20, 16, 64, 64, 64, true},    // Table III L3 bank, 64 B interleave
		{1 << 20, 16, 64, 1024, 64, true},  // 1 KiB interleave (SF)
		{1 << 20, 16, 64, 4096, 16, true},  // Fig 17 sweep end, 4x4
		{1 << 20, 16, 64, 1024, 9, false},  // 3x3 mesh
		{1 << 20, 16, 64, 192, 64, false},  // odd interleave
		{48 << 10, 8, 64, 0, 1, false},     // 96 sets
		{96 << 10, 8, 64, 1024, 64, false}, // 192 sets, bank-local
	}
	for _, c := range cases {
		a := newArray(c.sizeBytes, c.ways, c.lineBytes, 0)
		if c.interleave != 0 {
			a.setBankLocal(c.interleave, c.tiles)
		}
		if a.pow2 != c.pow2 {
			t.Errorf("%+v: pow2 = %v, want %v", c, a.pow2, c.pow2)
		}
		il, tiles, lb := uint64(c.interleave), uint64(c.tiles), uint64(c.lineBytes)
		for i := 0; i < 20000; i++ {
			la := rng.Uint64() >> uint(rng.Intn(40)) &^ (lb - 1)
			want := int(la / lb % uint64(a.sets))
			if il != 0 {
				want = int(((la/il/tiles)*(il/lb) + (la%il)/lb) % uint64(a.sets))
			}
			if got := a.setOf(la); got != want {
				t.Fatalf("%+v: setOf(%#x) = %d, want %d", c, la, got, want)
			}
			if got := a.setOfDiv(la); got != want {
				t.Fatalf("%+v: setOfDiv(%#x) = %d, want %d", c, la, got, want)
			}
		}
	}
}

// Property: after any sequence of reads/writes, directory sharer bits agree
// with actual private-cache contents.
func TestPropertyDirectoryAgreesWithCaches(t *testing.T) {
	f := func(seed int64) bool {
		r := newRig(t, nil)
		rng := rand.New(rand.NewSource(seed))
		lines := []uint64{0x10000, 0x10040, 0x20000}
		for i := 0; i < 60; i++ {
			addr := lines[rng.Intn(len(lines))]
			tile := rng.Intn(16)
			if rng.Intn(3) == 0 {
				r.access(tile, addr, Write)
			} else {
				r.access(tile, addr, Read)
			}
		}
		for _, la := range lines {
			dl := r.sys.banks[r.cfg.HomeBank(la)].lookup(la)
			for tile := 0; tile < 16; tile++ {
				pl := r.sys.tiles[tile].l2.lookup(la)
				has := pl != nil && pl.state != stInvalid
				tracked := dl != nil && (dl.sharers&(1<<uint(tile)) != 0 || int(dl.owner) == tile)
				if has && !tracked {
					return false // cached but invisible to the directory
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestL3EvictionBackInvalidates: inclusive L3 eviction must drop private
// copies and write dirty data to memory.
func TestL3EvictionBackInvalidates(t *testing.T) {
	r := newRig(t, nil)
	addr := LineAddr(0x1200000)
	r.access(5, addr, Write) // tile 5 owns M
	bank := r.cfg.HomeBank(addr)
	victim := r.sys.banks[bank].lookup(addr)
	if victim == nil {
		t.Fatal("line not in L3")
	}
	wrBefore := r.st.DRAMWrites
	r.sys.evictL3(bank, victim)
	r.eng.Run(0)
	if r.sys.tiles[5].l2.lookup(addr) != nil {
		t.Error("owner's copy survived L3 eviction (inclusion violated)")
	}
	if r.st.DRAMWrites == wrBefore {
		t.Error("dirty L3 eviction did not write memory")
	}
}

// TestInclusionProperty: after arbitrary traffic, every valid private L2
// line is present in its home L3 bank.
func TestInclusionProperty(t *testing.T) {
	r := newRig(t, nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		tile := rng.Intn(16)
		addr := uint64(0x1400000 + rng.Intn(1<<18)&^63)
		if rng.Intn(3) == 0 {
			r.access(tile, addr, Write)
		} else {
			r.access(tile, addr, Read)
		}
	}
	violations := 0
	for tile := 0; tile < 16; tile++ {
		r.sys.tiles[tile].l2.forEachValid(func(l *line) {
			if l.state == stInvalid {
				return
			}
			if r.sys.banks[r.cfg.HomeBank(l.addr)].lookup(l.addr) == nil {
				violations++
			}
		})
	}
	if violations != 0 {
		t.Errorf("%d private lines missing from L3 (inclusion violated)", violations)
	}
}

// TestBRRIPBimodalInsertion: with p=0.03 most fills insert distant and
// roughly 1-in-33 inserts long.
func TestBRRIPBimodalInsertion(t *testing.T) {
	a := newArray(64*64*16, 16, 64, 0.03)
	long := 0
	const n = 1000
	for i := 0; i < n; i++ {
		slot := a.victim(uint64(i * 64))
		if slot.valid {
			a.invalidate(slot)
		}
		a.insert(slot, uint64(i*64))
		if slot.rrpv == rrpvMax-1 {
			long++
		}
	}
	if long < n/50 || long > n/20 {
		t.Errorf("long insertions = %d/%d, want ~%d", long, n, n/33)
	}
}

// TestUpgradeAckNotData: an S->M upgrade response is a control message.
func TestUpgradeAckNotData(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0x1600000)
	r.access(0, addr, Read)
	r.access(1, addr, Read) // both S
	dataBefore := r.st.Messages[stats.ClassData]
	r.access(0, addr, Write) // upgrade: ack only
	if got := r.st.Messages[stats.ClassData] - dataBefore; got != 0 {
		t.Errorf("upgrade moved %d data messages", got)
	}
}

func BenchmarkDemandHit(b *testing.B) {
	r := newRig(b, nil)
	r.access(0, 0x100000, Read)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sys.Access(0, 0x100000, Read, NoMeta, nil)
		r.eng.Run(0)
	}
}

func BenchmarkColdMissPath(b *testing.B) {
	r := newRig(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sys.Access(i%16, uint64(0x4000000+i*64), Read, NoMeta, nil)
		r.eng.Run(0)
	}
}

// sanitizedRig is a rig with the sanitizer attached to every probe point
// the cache package owns.
func sanitizedRig(t testing.TB) *rig {
	r := newRig(t, nil)
	chk := sanitize.New(256)
	r.sys.SetChecker(chk)
	r.mesh.SetChecker(chk)
	r.eng.SetChecker(chk)
	return r
}

// TestSanitizerCleanProtocolRun drives shared/exclusive/upgrade/float
// traffic with all probes live: no violation may fire and the end-of-run
// audits must pass.
func TestSanitizerCleanProtocolRun(t *testing.T) {
	r := sanitizedRig(t)
	const line = uint64(0x40000)
	r.access(1, line, Read)  // cold: E grant
	r.access(2, line, Read)  // owner forward, both become S
	r.access(3, line, Write) // RFO: invalidates sharers, M at tile 3
	r.access(3, line, Read)  // local hit
	r.access(0, line+64, Write)
	// A float read (GetU) over a directory-held line must not disturb it.
	served := 0
	r.sys.FloatRead(r.cfg.HomeBank(line), line, []int{5}, stats.L3FloatAffine, 64, nil,
		func(int, event.Cycle) { served++ })
	r.eng.Run(0)
	if served != 1 {
		t.Fatalf("float read served %d", served)
	}
	// Stripe a few more lines to exercise evictions and DRAM fills.
	for i := uint64(0); i < 64; i++ {
		r.access(int(i%4), 0x900000+i*64, Read)
	}
	r.sys.Audit()
	r.mesh.Audit()
}

// TestFlipSharerBitCaught seeds the acceptance-criteria coherence bug: a
// flipped sharer bit for a tile that holds no copy must be caught by the
// MESI probe with a dump naming the line and the tile.
func TestFlipSharerBitCaught(t *testing.T) {
	r := sanitizedRig(t)
	const line = uint64(0x40000)
	r.access(1, line, Read)
	r.access(2, line, Read) // line now shared by tiles 1 and 2
	const victim = 7        // tile 7 never touched the line
	if r.sys.PrivateHas(victim, line) {
		t.Fatal("fault site invalid: tile already holds the line")
	}
	if !r.sys.FlipSharerBit(line, victim) {
		t.Fatal("directory entry missing")
	}
	defer func() {
		v, ok := recover().(*sanitize.Violation)
		if !ok {
			t.Fatal("flipped sharer bit not caught")
		}
		msg := v.Error()
		for _, want := range []string{"0x40000", "tile 7", "sharer bit"} {
			if !strings.Contains(msg, want) {
				t.Errorf("violation dump missing %q:\n%s", want, msg)
			}
		}
		// The dump must carry the line's protocol history.
		if !strings.Contains(msg, "gets") {
			t.Errorf("dump lacks the line's GetS trace:\n%s", msg)
		}
	}()
	// The next directory access to the line trips the probe.
	r.access(3, line, Read)
}

// TestFlipOwnerVariantCaught flips the directory into the "owner also in
// sharer vector" state and requires the probe to catch that too.
func TestFlipOwnerVariantCaught(t *testing.T) {
	r := sanitizedRig(t)
	const line = uint64(0x80000)
	r.access(1, line, Read) // E at tile 1 (owner)
	if !r.sys.FlipSharerBit(line, 1) {
		t.Fatal("directory entry missing")
	}
	defer func() {
		v, ok := recover().(*sanitize.Violation)
		if !ok || !strings.Contains(v.Error(), "also appears in sharer vector") {
			t.Fatalf("owner/sharer overlap not caught: %v", v)
		}
	}()
	r.sys.Audit()
}
