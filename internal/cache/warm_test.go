package cache

import (
	"math/rand"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
)

// shrinkCaches makes every level tiny so warm traffic forces evictions at
// L1, L2 and the L3 banks — the paths whose directory bookkeeping the warm
// API must keep consistent.
func shrinkCaches(c *config.Config) {
	c.L1.SizeBytes = 2 * 2 * 64 // 2 sets x 2 ways
	c.L1.Ways = 2
	c.L2.SizeBytes = 4 * 4 * 64
	c.L2.Ways = 4
	c.L3.SizeBytes = 16 * 4 * 64 // per bank
	c.L3.Ways = 4
}

// TestWarmBasicStates: warm accesses leave MESI/directory state equal to the
// drained end state of the equivalent detailed accesses.
func TestWarmBasicStates(t *testing.T) {
	r := newRig(t, nil)
	s := r.sys
	const a = uint64(0x40000)
	la := LineAddr(a)

	// Lone read warms E + ownership.
	s.WarmPrivate(0, a, false)
	if !s.PrivateHas(0, a) {
		t.Fatal("warm read did not install a private copy")
	}
	bank := s.banks[r.cfg.HomeBank(la)]
	sharers, owner, held := bank.entry(la)
	if !held {
		t.Fatal("warm read did not install the home-bank entry")
	}
	if owner != 0 || sharers != 0 {
		t.Fatalf("lone warm read: owner=%d sharers=%#x, want owner=0 sharers=0", owner, sharers)
	}
	if l2 := s.tiles[0].l2.lookup(la); l2 == nil || l2.state() != stExclusive {
		t.Fatalf("lone warm read should hold E, got %v", l2)
	}

	// Second tile's read downgrades the owner: both become sharers.
	s.WarmPrivate(1, a, false)
	if sharers, owner, _ = bank.entry(la); owner != -1 || sharers != 0b11 {
		t.Fatalf("after second reader: owner=%d sharers=%#x, want owner=-1 sharers=0x3", owner, sharers)
	}
	if l2 := s.tiles[0].l2.lookup(la); l2 == nil || l2.state() != stShared {
		t.Fatalf("first reader should be downgraded to S, got %v", l2)
	}

	// A write invalidates every other holder and takes M.
	s.WarmPrivate(2, a, true)
	if sharers, owner, _ = bank.entry(la); owner != 2 || sharers != 0 {
		t.Fatalf("after warm write: owner=%d sharers=%#x, want owner=2 sharers=0", owner, sharers)
	}
	if s.PrivateHas(0, a) || s.PrivateHas(1, a) {
		t.Error("warm write left stale copies in former sharers")
	}
	if l2 := s.tiles[2].l2.lookup(la); l2 == nil || l2.state() != stModified || !l2.has(fDirty) {
		t.Fatalf("writer should hold M dirty, got %v", l2)
	}

	// A read after the write downgrades the dirty owner and marks the bank
	// entry dirty (the functional image of the writeback).
	s.WarmPrivate(3, a, false)
	if dl := bank.lookup(la); dl == nil || !dl.has(fDirty) {
		t.Error("downgrading a dirty owner did not mark the bank entry dirty")
	}
	if l2 := s.tiles[2].l2.lookup(la); l2 == nil || l2.state() != stShared || l2.has(fDirty) {
		t.Fatalf("former writer should be clean S, got %v", l2)
	}

	// WarmShared only touches the bank: no private copy appears.
	const b = uint64(0x80000)
	s.WarmShared(b)
	if s.banks[r.cfg.HomeBank(LineAddr(b))].lookup(LineAddr(b)) == nil {
		t.Error("WarmShared did not install the bank entry")
	}
	for tile := 0; tile < r.cfg.Tiles(); tile++ {
		if s.PrivateHas(tile, b) {
			t.Errorf("WarmShared leaked a private copy into tile %d", tile)
		}
	}
}

// TestWarmAuditUnderPressure: a large randomized warm workload over tiny
// caches — forcing L1/L2/L3 evictions, ownership migration, and sharing —
// must keep the directory invariants the sanitizer audits, and must never
// touch statistics or schedule events.
func TestWarmAuditUnderPressure(t *testing.T) {
	r := newRig(t, shrinkCaches)
	s := r.sys
	chk := sanitize.New(sanitize.DefaultDepth)
	s.SetChecker(chk)

	rng := rand.New(rand.NewSource(7))
	tiles := r.cfg.Tiles()
	for i := 0; i < 20000; i++ {
		addr := uint64(0x100000) + uint64(rng.Intn(4096))*64
		switch tile := rng.Intn(tiles); rng.Intn(4) {
		case 0:
			s.WarmPrivate(tile, addr, true)
		case 3:
			s.WarmShared(addr)
		default:
			s.WarmPrivate(tile, addr, false)
		}
	}

	if *r.St != (stats.Stats{}) {
		t.Errorf("warm accesses mutated statistics: %+v", r.St)
	}
	if r.Eng.Pending() != 0 {
		t.Errorf("warm accesses scheduled %d events", r.Eng.Pending())
	}
	s.Audit() // panics on any directory/inclusion violation
}

// TestWarmThenDetailed: detailed accesses after a warm phase observe the
// warmed state (a warm line is a hit) and the mixed-mode machine still
// passes the audit — the exact alternation the sampled executor performs.
func TestWarmThenDetailed(t *testing.T) {
	r := newRig(t, shrinkCaches)
	s := r.sys
	chk := sanitize.New(sanitize.DefaultDepth)
	s.SetChecker(chk)

	const a = uint64(0x40000)
	s.WarmPrivate(0, a, false)
	if lat := r.access(0, a, Read); lat != event.Cycle(r.cfg.L1.LatCycles) {
		t.Errorf("detailed read of warmed line took %d cycles, want L1 hit latency %d", lat, r.cfg.L1.LatCycles)
	}
	if r.St.L1Hits != 1 || r.St.L1Misses != 0 {
		t.Errorf("warmed line was not an L1 hit: hits=%d misses=%d", r.St.L1Hits, r.St.L1Misses)
	}

	// Detailed traffic over the warm working set, then more warm traffic.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 64; i++ {
		addr := uint64(0x100000) + uint64(rng.Intn(256))*64
		s.WarmPrivate(rng.Intn(r.cfg.Tiles()), addr, rng.Intn(3) == 0)
	}
	for i := 0; i < 64; i++ {
		addr := uint64(0x100000) + uint64(rng.Intn(256))*64
		kind := Read
		if rng.Intn(3) == 0 {
			kind = Write
		}
		r.access(rng.Intn(r.cfg.Tiles()), addr, kind)
	}
	for i := 0; i < 64; i++ {
		addr := uint64(0x100000) + uint64(rng.Intn(256))*64
		s.WarmPrivate(rng.Intn(r.cfg.Tiles()), addr, rng.Intn(3) == 0)
	}
	s.Audit()
}
