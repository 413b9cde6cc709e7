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
	"streamfloat/internal/par/partest"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
)

// rig bundles a small hierarchy for protocol tests, built on the shared
// one-shard rig (Eng, St, Run): the layout every default sweep point runs on.
type rig struct {
	*partest.Rig
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
	pr := partest.New(cfg.Tiles(), event.Cycle(cfg.RouterLatency+cfg.LinkLatency))
	mesh := noc.New(pr.Layout, cfg.MeshWidth, cfg.MeshHeight, cfg.LinkBits, cfg.RouterLatency, cfg.LinkLatency)
	dram := mem.NewDRAM(pr.Layout, cfg.DRAMLatency, cfg.DRAMBandwidthBpc, cfg.MemControllerTiles())
	sys := NewSystem(pr.Layout, cfg, mesh, dram)
	return &rig{Rig: pr, cfg: cfg, mesh: mesh, sys: sys}
}

// access runs one access to completion and returns its latency.
func (r *rig) access(tile int, addr uint64, kind Kind) event.Cycle {
	start := r.Eng.Now()
	var done event.Cycle
	fired := false
	r.sys.Access(tile, addr, kind, NoMeta, func(now event.Cycle) {
		done = now
		fired = true
	})
	r.Run()
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
	if r.St.L1Hits != 1 || r.St.L1Misses != 1 {
		t.Errorf("L1 hits/misses = %d/%d", r.St.L1Hits, r.St.L1Misses)
	}
	if r.St.DRAMReads != 1 {
		t.Errorf("dram reads = %d", r.St.DRAMReads)
	}
}

func TestSecondTileHitsL3(t *testing.T) {
	r := newRig(t, nil)
	r.access(0, 0x200000, Read)
	before := r.St.DRAMReads
	r.access(5, 0x200000, Read)
	if r.St.DRAMReads != before {
		t.Error("second tile's read should hit L3, not DRAM")
	}
	if r.St.L3Hits == 0 {
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
	msgs := r.St.Messages[stats.ClassCtrlReq]
	r.access(3, addr, Write) // silent E->M
	if r.St.Messages[stats.ClassCtrlReq] != msgs {
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
	dramBefore := r.St.DRAMReads
	r.access(9, addr, Read) // must forward from owner
	if r.St.DRAMReads != dramBefore {
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
	if r.St.L2Evictions == 0 {
		t.Fatal("no L2 evictions")
	}
	if r.St.L2EvictCleanNoReuse == 0 {
		t.Fatal("no clean-unreused evictions counted (Fig 2a)")
	}
	if r.St.Messages[stats.ClassCtrlCoh] == 0 {
		t.Fatal("clean evictions must notify the directory (PutS)")
	}
	if r.St.UnreusedCtrlFlitHops == 0 || r.St.UnreusedDataFlitHops == 0 {
		t.Fatal("Fig 2b attribution not collected")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, nil)
	linesToStream := r.cfg.L2.SizeBytes/64 + 1024
	for i := 0; i < linesToStream; i++ {
		r.access(0, uint64(0x2000000+i*64), Write)
	}
	if r.St.L2Evictions == 0 {
		t.Fatal("no evictions")
	}
	// Dirty evictions carry data; re-reading an evicted dirty line must hit
	// L3 (writeback preserved it), not DRAM... unless L3 also evicted it.
	if r.St.L2EvictCleanNoReuse != 0 {
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
	r.Run()
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
	r.Run()
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
	r.Run()
	// An 8-byte subline response is a single flit; a full line would be 3.
	if r.St.Flits[stats.ClassData] > uint64(2*r.mesh.Hops(r.cfg.HomeBank(addr), 3)+4) {
		// The DRAM fill moves a full line bank<-ctrl; just check the
		// response leg was not 3 flits by bounding total data flits.
	}
	if r.St.L3Requests[stats.L3FloatIndirect] != 1 {
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
	r.Run()
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
	if r.St.DRAMReads != 1 {
		t.Errorf("dram reads = %d, want 1 (merged)", r.St.DRAMReads)
	}
}

func TestBankFillMSHRMergesAcrossTiles(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xb00000)
	done := 0
	for tile := 0; tile < 8; tile++ {
		r.sys.Access(tile, addr, Read, NoMeta, func(event.Cycle) { done++ })
	}
	r.Run()
	if done != 8 {
		t.Fatalf("completions = %d", done)
	}
	if r.St.DRAMReads != 1 {
		t.Errorf("dram reads = %d, want 1 (bank fill MSHR)", r.St.DRAMReads)
	}
}

func TestPrefetchFillAndUseful(t *testing.T) {
	r := newRig(t, nil)
	addr := uint64(0xc00000)
	r.access(0, addr, PrefL1)
	if r.St.PrefetchIssued != 1 {
		t.Fatalf("issued = %d", r.St.PrefetchIssued)
	}
	lat := r.access(0, addr, Read)
	if lat != event.Cycle(r.cfg.L1.LatCycles) {
		t.Errorf("post-prefetch latency = %d", lat)
	}
	if r.St.PrefetchUseful != 1 {
		t.Errorf("useful = %d", r.St.PrefetchUseful)
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
	r.Run()
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
	if va, _ := a.addrOf(a.victim(8 * 64)); va != 4*64 {
		t.Errorf("victim = %#x, want the untouched line", va)
	}
}

// TestLineSizeof pins the packed layout: 24 bytes of metadata plus the
// 8-byte tag held beside it is 32 bytes per way, what a line alone cost
// while it still carried its own address.
func TestLineSizeof(t *testing.T) {
	if sz := unsafe.Sizeof(line{}); sz > 24 {
		t.Fatalf("sizeof(line) = %d bytes, want <= 24", sz)
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
	slab := a.slab
	a.release()
	for i := range slab.lines {
		if slab.lines[i] != emptyLine || slab.tags[i] != 0 {
			t.Fatalf("released slab way %d = %+v tag %#x, want the empty line and no tag", i, slab.lines[i], slab.tags[i])
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
	wrBefore := r.St.DRAMWrites
	r.sys.evictL3(bank, victim, addr)
	r.Run()
	if r.sys.tiles[5].l2.lookup(addr) != nil {
		t.Error("owner's copy survived L3 eviction (inclusion violated)")
	}
	if r.St.DRAMWrites == wrBefore {
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
		r.sys.tiles[tile].l2.forEachValid(func(la uint64, l *line) {
			if l.state == stInvalid {
				return
			}
			if r.sys.banks[r.cfg.HomeBank(la)].lookup(la) == nil {
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
		if _, held := a.addrOf(slot); held {
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
	dataBefore := r.St.Messages[stats.ClassData]
	r.access(0, addr, Write) // upgrade: ack only
	if got := r.St.Messages[stats.ClassData] - dataBefore; got != 0 {
		t.Errorf("upgrade moved %d data messages", got)
	}
}

func BenchmarkDemandHit(b *testing.B) {
	r := newRig(b, nil)
	r.access(0, 0x100000, Read)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sys.Access(0, 0x100000, Read, NoMeta, nil)
		r.Run()
	}
}

func BenchmarkColdMissPath(b *testing.B) {
	r := newRig(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sys.Access(i%16, uint64(0x4000000+i*64), Read, NoMeta, nil)
		r.Run()
	}
}

// sanitizedRig is a rig with the sanitizer attached to every probe point
// the cache package owns.
func sanitizedRig(t testing.TB) *rig {
	r := newRig(t, nil)
	chk := sanitize.New(256)
	r.sys.SetChecker(chk)
	r.mesh.SetChecker(chk)
	r.Eng.SetChecker(chk)
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
	r.Run()
	if served != 1 {
		t.Fatalf("float read served %d", served)
	}
	// Stripe a few more lines to exercise evictions and DRAM fills.
	for i := uint64(0); i < 64; i++ {
		r.access(int(i%4), 0x900000+i*64, Read)
	}
	r.sys.Audit()
	r.mesh.Audit(r.St)
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

// read runs one demand read from tile to completion.
func (r *rig) read(tile int, addr uint64, done func(event.Cycle)) {
	r.sys.Access(tile, addr, Read, NoMeta, done)
	r.Run()
}

// missRounds prepares the two kinds of L2 miss the zero-alloc test and the
// benchmark share. dram(i) reads a line nobody has touched: L3 miss, DRAM
// fill, exclusive grant. l3hit(i) reads, from tile 5, a line tiles 0 and 1
// already share: L3 hit answered by the bank (no owner to forward from).
// Both run the access to completion; i must not repeat within a kind, and
// l3hit's lines are warmed here for i < hits.
func missRounds(r *rig, hits int) (dram, l3hit func(i int), completed *int) {
	completed = new(int)
	done := func(event.Cycle) { *completed++ }
	const coldBase, sharedBase = 0x4000000, 0x8000000
	for i := 0; i < hits; i++ {
		r.read(0, uint64(sharedBase+i*lineSize), done)
		r.read(1, uint64(sharedBase+i*lineSize), done)
	}
	*completed = 0
	dram = func(i int) { r.read(i%16, uint64(coldBase+i*lineSize), done) }
	l3hit = func(i int) { r.read(5, uint64(sharedBase+i*lineSize), done) }
	return dram, l3hit, completed
}

// TestDemandMissZeroAlloc: once the freelists are warm, a demand read that
// misses L2 — whether the bank has the line or has to fill it from DRAM —
// travels core to fill and back on recycled op records and allocates
// nothing.
func TestDemandMissZeroAlloc(t *testing.T) {
	const perRound, rounds, warm = 16, 20, 4
	r := newRig(t, nil)
	dram, l3hit, completed := missRounds(r, perRound*(warm+rounds+1))
	next := 0
	round := func(miss func(int)) func() {
		return func() {
			for i := 0; i < perRound; i++ {
				miss(next)
				next++
			}
		}
	}
	// Group.Run has a small fixed cost per call; the misses must add nothing.
	idle := func(int) { r.read(0, 0, nil) }
	r.read(0, 0, nil)
	base := testing.AllocsPerRun(rounds, round(idle))
	for _, c := range []struct {
		name string
		miss func(int)
	}{{"DRAM fill", dram}, {"L3 hit", l3hit}} {
		next = 0
		for i := 0; i < warm; i++ {
			round(c.miss)()
		}
		l3Before, fillsBefore := r.St.L3Hits, r.St.DRAMReads
		*completed = 0
		if avg := testing.AllocsPerRun(rounds, round(c.miss)); avg != base {
			t.Errorf("%s: %d read misses allocate %v times per round over %v for as many L1 hits, want 0",
				c.name, perRound, avg-base, base)
		}
		// The rounds must have taken the path they are named for.
		n := uint64(perRound * (rounds + 1))
		if *completed != int(n) {
			t.Errorf("%s: %d of %d reads completed", c.name, *completed, n)
		}
		hits, fills := r.St.L3Hits-l3Before, r.St.DRAMReads-fillsBefore
		if c.name == "DRAM fill" && (fills != n || hits != 0) {
			t.Errorf("DRAM fill rounds saw %d fills and %d L3 hits, want %d and 0", fills, hits, n)
		}
		if c.name == "L3 hit" && (hits != n || fills != 0) {
			t.Errorf("L3 hit rounds saw %d L3 hits and %d fills, want %d and 0", hits, fills, n)
		}
	}
}

// BenchmarkDemandMiss times one demand read that misses L2, run to
// completion on a one-shard 4x4 system, for the two ways the
// home bank can answer it. A fresh system every 16k reads keeps the L3-hit
// lines inside the L3 whatever b.N is.
func BenchmarkDemandMiss(b *testing.B) {
	const chunk = 1 << 14
	for _, kind := range []string{"L3Hit", "DRAMFill"} {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for left := b.N; left > 0; left -= chunk {
				b.StopTimer()
				n := min(chunk, left)
				r := newRig(b, nil)
				miss, _, _ := missRounds(r, 0)
				if kind == "L3Hit" {
					_, miss, _ = missRounds(r, n)
				}
				b.StartTimer()
				for i := 0; i < n; i++ {
					miss(i)
				}
			}
		})
	}
}

// expectViolation runs fn and requires it to trip the sanitizer with a
// message containing want.
func expectViolation(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		v, ok := recover().(*sanitize.Violation)
		if !ok {
			t.Fatalf("no sanitizer violation, want one mentioning %q", want)
		}
		if !strings.Contains(v.Error(), want) {
			t.Errorf("violation does not mention %q:\n%s", want, v.Error())
		}
	}()
	fn()
}

// TestOpLifecycleOracle: the audit of a drained run accounts for every op
// record. A record that never came back and a record that came back twice
// are both violations, for each record type that crosses stages.
func TestOpLifecycleOracle(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		r := sanitizedRig(t)
		for i := uint64(0); i < 64; i++ {
			r.access(int(i%16), 0x900000+i*64, Read)
			r.access(int((i+1)%16), 0x900000+i*64, Write) // owner forward
		}
		r.sys.PrefetchBulkL2(3, r.cfg.HomeBank(0xa00000), []uint64{0xa00000}, NoMeta)
		r.Run()
		r.sys.Audit()
	})
	leaks := map[string]func(*System){
		"1 accessOp": func(s *System) { s.getOp(2) },
		"1 missOp":   func(s *System) { s.getMiss(2) },
		"1 fillOp":   func(s *System) { s.getFill(2) },
	}
	for want, leak := range leaks {
		t.Run("leak "+want, func(t *testing.T) {
			r := sanitizedRig(t)
			r.access(1, 0x40000, Read)
			leak(r.sys)
			expectViolation(t, want, r.sys.Audit)
		})
	}
	twice := map[string]func(*System){
		"accessOp": func(s *System) { op := s.getOp(2); op.s, op.tile = s, 2; s.putOp(op); s.putOp(op) },
		"missOp":   func(s *System) { m := s.getMiss(2); s.putMiss(2, m); s.putMiss(2, m) },
		"fillOp":   func(s *System) { f := s.getFill(2); s.putFill(2, f); s.putFill(2, f) },
	}
	for what, put := range twice {
		t.Run("double put "+what, func(t *testing.T) {
			r := sanitizedRig(t)
			expectViolation(t, what+" returned to its freelist twice", func() { put(r.sys) })
		})
	}
}
