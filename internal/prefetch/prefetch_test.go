package prefetch

import (
	"testing"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/mem"
	"streamfloat/internal/noc"
	"streamfloat/internal/par/partest"
	"streamfloat/internal/stats"
)

// newRig attaches the prefetchers to a 4x4 hierarchy on the shared one-shard
// rig; st is the rig's counters.
func newRig(kind config.PrefetchKind, bulk bool) (r *partest.Rig, st *stats.Stats, sys *cache.System, p *Prefetchers) {
	cfg := rigConfig(kind, bulk)
	r = partest.New(cfg.Tiles(), event.Cycle(cfg.RouterLatency+cfg.LinkLatency))
	mesh := noc.New(r.Layout, 4, 4, cfg.LinkBits, cfg.RouterLatency, cfg.LinkLatency)
	dram := mem.NewDRAM(r.Layout, cfg.DRAMLatency, cfg.DRAMBandwidthBpc, cfg.MemControllerTiles())
	sys = cache.NewSystem(r.Layout, cfg, mesh, dram)
	return r, r.St, sys, Attach(cfg, sys)
}

// rigConfig is newRig's configuration.
func rigConfig(kind config.PrefetchKind, bulk bool) config.Config {
	cfg := config.Default()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Prefetch = kind
	cfg.BulkPrefetch = bulk
	if bulk {
		cfg.L3InterleaveBytes = 1024
	}
	return cfg
}

// demand drives a demand read and waits for completion.
func demand(r *partest.Rig, sys *cache.System, tile int, addr uint64, pc uint32) {
	sys.Access(tile, addr, cache.Read, cache.Meta{PC: pc, StreamID: -1}, nil)
	r.Run()
}

func TestStrideTableLearns(t *testing.T) {
	st := newStrideTable()
	var ready bool
	for i := 0; i < 5; i++ {
		_, ready = st.train(100, uint64(0x1000+i*64))
	}
	if !ready {
		t.Error("constant stride not learned after 5 accesses")
	}
	// Repeated wild jumps drop confidence below the issue threshold.
	_, ready = st.train(100, 0x100000)
	_, ready = st.train(100, 0x734000)
	_, ready = st.train(100, 0x2a1000)
	if ready {
		t.Error("repeated wild jumps still confident")
	}
}

func TestStrideTableCapacityLRU(t *testing.T) {
	st := newStrideTable()
	for pc := uint32(0); pc < strideTableSize+4; pc++ {
		st.train(pc, uint64(pc)*0x1000)
	}
	if len(st.entries) != strideTableSize {
		t.Errorf("table grew to %d", len(st.entries))
	}
}

func TestStridePrefetcherIssues(t *testing.T) {
	r, st, sys, _ := newRig(config.PrefetchStride, false)
	for i := 0; i < 20; i++ {
		demand(r, sys, 0, uint64(0x100000+i*64), 7)
	}
	if st.PrefetchIssued == 0 {
		t.Fatal("stride prefetcher issued nothing")
	}
	if st.PrefetchUseful == 0 {
		t.Error("no prefetch was useful on a pure stride")
	}
}

func TestStridePrefetchTimelinessHelps(t *testing.T) {
	run := func(kind config.PrefetchKind) uint64 {
		r, st, sys, _ := newRig(kind, false)
		for i := 0; i < 400; i++ {
			demand(r, sys, 0, uint64(0x200000+i*64), 9)
		}
		return st.L1Misses + st.L2Misses
	}
	if miss := run(config.PrefetchStride); miss >= run(config.PrefetchNone) {
		t.Errorf("stride prefetching did not reduce misses (%d)", miss)
	}
}

func TestBingoReplaysFootprint(t *testing.T) {
	bg := newBingo()
	// Visit region 0 fully with trigger pc=5 offset 0.
	for l := 0; l < linesPerRegion; l++ {
		bg.observe(5, uint64(l*64))
	}
	// Touch enough other regions (under a different trigger PC, so they do
	// not retrain this trigger) to evict region 0 into the PHT.
	for r := 1; r <= regionTableSize; r++ {
		bg.observe(900+uint32(r), uint64(r*regionBytes))
	}
	// A new region triggered by the same event must replay the footprint.
	base, fp, ok := bg.observe(5, uint64((regionTableSize+5)*regionBytes))
	if !ok {
		t.Fatal("no prediction for a known trigger")
	}
	if base == 0 || fp == 0 {
		t.Fatal("empty prediction")
	}
	// Full-region footprint minus the trigger line.
	want := uint32(1<<linesPerRegion-1) &^ 1
	if fp != want {
		t.Errorf("footprint = %#x, want %#x", fp, want)
	}
}

func TestBingoEndToEnd(t *testing.T) {
	r, st, sys, _ := newRig(config.PrefetchBingo, false)
	for i := 0; i < 800; i++ {
		demand(r, sys, 1, uint64(0x400000+i*64), 3)
	}
	if st.PrefetchIssued == 0 {
		t.Fatal("bingo issued nothing")
	}
	if st.PrefetchAccuracy() < 0.5 {
		t.Errorf("bingo accuracy %.2f on a dense scan", st.PrefetchAccuracy())
	}
}

func TestL2StrideTrainsOnMisses(t *testing.T) {
	r, st, sys, _ := newRig(config.PrefetchStride, false)
	// Large-stride accesses miss L1+L2 and train the L2 table.
	for i := 0; i < 30; i++ {
		demand(r, sys, 2, uint64(0x800000+i*256), 11)
	}
	if st.PrefetchIssued == 0 {
		t.Error("no prefetches for strided misses")
	}
}

func TestBulkPrefetchGroupsMessages(t *testing.T) {
	// Four same-bank lines: the bulk path sends one request message where
	// individual L2 prefetches send four.
	r, st, sys, _ := newRig(config.PrefetchStride, true)
	bank := sys.HomeBank(0x900000)
	lines := []uint64{0x900000, 0x900040, 0x900080, 0x9000c0}
	sys.PrefetchBulkL2(0, bank, lines, cache.Meta{PC: 13, StreamID: -1})
	r.Run()
	if st.PrefetchIssued != 4 {
		t.Fatalf("issued = %d", st.PrefetchIssued)
	}
	// One grouped request to the bank, plus one DRAM fetch request per
	// line from the bank to the memory controller.
	wantMax := uint64(1 + 4)
	if got := st.Messages[stats.ClassCtrlReq]; got > wantMax {
		t.Errorf("bulk sent %d request messages, want <= %d", got, wantMax)
	}

	// Individual path for comparison.
	r2, st2, sys2, _ := newRig(config.PrefetchStride, false)
	for _, la := range []uint64{0x900000, 0x900040, 0x900080, 0x9000c0} {
		sys2.Access(0, la, cache.PrefL2, cache.Meta{PC: 13, StreamID: -1}, nil)
	}
	r2.Run()
	if st2.Messages[stats.ClassCtrlReq] <= st.Messages[stats.ClassCtrlReq] {
		t.Errorf("individual prefetches (%d msgs) should exceed bulk (%d)",
			st2.Messages[stats.ClassCtrlReq], st.Messages[stats.ClassCtrlReq])
	}
}

func TestBulkGroupingByBank(t *testing.T) {
	// issueStrideBulk must split prefetch lines at bank boundaries and at
	// the 4-line group cap.
	_, st, sys, p := newRig(config.PrefetchStride, true)
	e := &strideEntry{pc: 13, lastAddr: 0x900000 - 64, stride: 64, conf: 3}
	p.issueStrideBulk(0, p.l2Stride[0], e, 13)
	_ = sys
	if st.PrefetchIssued == 0 {
		t.Fatal("bulk issued nothing")
	}
	if st.PrefetchIssued > l2Degree {
		t.Errorf("issued %d > degree %d", st.PrefetchIssued, l2Degree)
	}
}

func TestNoPrefetcherNoNoise(t *testing.T) {
	r, st, sys, _ := newRig(config.PrefetchNone, false)
	for i := 0; i < 50; i++ {
		demand(r, sys, 0, uint64(0xa00000+i*64), 1)
	}
	if st.PrefetchIssued != 0 {
		t.Error("PrefetchNone issued prefetches")
	}
}

func TestIrregularPatternLowAccuracy(t *testing.T) {
	r, st, sys, _ := newRig(config.PrefetchStride, false)
	// Pseudo-random pointer-chase addresses: stride confidence must not
	// build, so few prefetches issue.
	addr := uint64(0x500000)
	for i := 0; i < 200; i++ {
		addr = (addr*2654435761 + 97) % (1 << 22)
		demand(r, sys, 3, 0x1000000+addr&^63, 17)
	}
	if st.PrefetchIssued > 100 {
		t.Errorf("stride issued %d prefetches on random addresses", st.PrefetchIssued)
	}
}

// fillEveryWay fills every way of every cache array through the functional
// warm-up, at addresses no test here uses, so no set's block moves and no
// slab grows inside a measured window: both happen only while a run still
// fills ways for the first time.
func fillEveryWay(sys *cache.System, cfg config.Config) {
	const far = 1 << 40
	for la := uint64(0); la < uint64(cfg.Tiles()*cfg.L3.SizeBytes); la += 64 {
		sys.WarmShared(far + la)
	}
	for tile := 0; tile < cfg.Tiles(); tile++ {
		base := uint64(far + (1+tile)<<30)
		for la := uint64(0); la < uint64(cfg.L2.SizeBytes); la += 64 {
			sys.WarmPrivate(tile, base+la, false)
		}
	}
}

// TestPrefetchBurstZeroAlloc: once warm (slabs included), training a
// prefetcher and issuing its bursts allocates nothing — stride lines and bulk
// groups are built in per-table scratch and the Bingo PHT is a table, not a
// map. Each round is 16 demand reads walking a fresh stride (every one a miss
// that trains and fires a burst), held against as many reads of one line.
func TestPrefetchBurstZeroAlloc(t *testing.T) {
	const perRound, rounds, warm = 16, 20, 8
	for _, c := range []struct {
		name string
		kind config.PrefetchKind
		bulk bool
	}{
		{"stride", config.PrefetchStride, false},
		{"stride bulk", config.PrefetchStride, true},
		{"bingo", config.PrefetchBingo, false},
	} {
		r, st, sys, _ := newRig(c.kind, c.bulk)
		fillEveryWay(sys, rigConfig(c.kind, c.bulk))
		next := 0
		walk := func() {
			for i := 0; i < perRound; i++ {
				demand(r, sys, 1, uint64(0x4000000+next*64), 9)
				next++
			}
		}
		idle := func() {
			for i := 0; i < perRound; i++ {
				demand(r, sys, 1, 0x100, 3)
			}
		}
		for i := 0; i < warm; i++ {
			walk()
		}
		idle()
		base := testing.AllocsPerRun(rounds, idle)
		issued := st.PrefetchIssued
		if avg := testing.AllocsPerRun(rounds, walk); avg != base {
			t.Errorf("%s: %d training reads allocate %v times per round over %v for as many hits, want 0",
				c.name, perRound, avg-base, base)
		}
		if st.PrefetchIssued == issued {
			t.Errorf("%s: the measured rounds issued no prefetches", c.name)
		}
	}
}
