package cache

import (
	"math/bits"

	"streamfloat/internal/event"
	"streamfloat/internal/sanitize"
)

// SetChecker attaches sanitizer probes to the hierarchy: every directory
// transition is traced and checked against the MESI invariants (single
// owner, owner never in the sharer vector, sharer bits only for tiles that
// hold or are filling the line), GetU float reads are checked to never
// mutate directory state, and Audit can verify the drained end-of-run
// state. Checked arrays regrow their storage from empty and poison what
// each growth moves (see array.check). nil detaches. Call before any access.
func (s *System) SetChecker(chk *sanitize.Checker) {
	s.chk = chk
	s.evicting = nil
	for i, tc := range s.tiles {
		tc.l1.check(chk != nil)
		tc.l2.check(chk != nil)
		s.banks[i].check(chk != nil)
	}
	if chk != nil {
		s.evicting = make([]map[uint64]int, len(s.tiles))
		for i := range s.evicting {
			s.evicting[i] = make(map[uint64]int)
		}
	}
}

// privateOrPending reports whether the directory may legally name tile for
// la: the tile's L2 holds the line, an MSHR entry covers an in-flight fill of
// it, or the tile evicted it and the directory update is still in the op log.
// Directory bits are set at the bank before the data reaches the requester
// and cleared at the barrier after the copy is gone, so both windows are
// directory-consistent states.
func (s *System) privateOrPending(tile int, la uint64) bool {
	tc := s.tiles[tile]
	if tc.l2.lookup(la) != nil {
		return true
	}
	if tc.mshr.Has(la) {
		return true
	}
	return s.evicting[tile][la] > 0
}

// checkDirectoryLine verifies the per-line MESI invariants for one
// directory entry, way w of the bank. Only the directory->private direction
// is asserted: a set sharer bit or owner id must correspond to a tile that
// holds (or is filling) the line. The reverse direction legitimately breaks
// when a bank victim is evicted while its private copies' fills are in
// flight (see dramFill's racing-fill path), so it is not checked.
func (s *System) checkDirectoryLine(bank int, la uint64, w int, when string) {
	tiles := s.ntiles
	sharers, owner := s.banks[bank].sharers[w], s.banks[bank].owner[w]
	if int(owner) >= tiles {
		s.chk.Failf(la, "l3dir[%d] %s: line %#x owner %d beyond %d tiles", bank, when, la, owner, tiles)
	}
	if tiles < 64 && sharers>>uint(tiles) != 0 {
		s.chk.Failf(la, "l3dir[%d] %s: line %#x sharer vector %#x has bits beyond %d tiles",
			bank, when, la, sharers, tiles)
	}
	if o := int(owner); o >= 0 {
		if sharers&(1<<uint(o)) != 0 {
			s.chk.Failf(la, "l3dir[%d] %s: line %#x owner tile %d also appears in sharer vector %#x",
				bank, when, la, o, sharers)
		}
		if !s.privateOrPending(o, la) {
			s.chk.Failf(la, "l3dir[%d] %s: line %#x names owner tile %d, but that tile neither holds the line nor has a fill in flight",
				bank, when, la, o)
		}
	}
	for rem := sharers; rem != 0; {
		t := bits.TrailingZeros64(rem)
		rem &^= 1 << uint(t)
		if !s.privateOrPending(t, la) {
			s.chk.Failf(la, "l3dir[%d] %s: line %#x has sharer bit for tile %d, but that tile neither holds the line nor has a fill in flight",
				bank, when, la, t)
		}
	}
}

// bankHitChecked wraps bankHit with the MESI probe: the directory entry of
// l, the bank's line for m, is traced and checked both before and after the
// transition it applies.
func (s *System) bankHitChecked(m *missOp, l *line) {
	arr := s.banks[m.bank]
	w := arr.indexOf(l)
	if s.chk != nil {
		bank, la := m.bank, m.la
		ev := "gets"
		if m.excl {
			ev = "getx"
		}
		s.chk.Trace(sanitize.Record{
			Cycle: uint64(s.lay.Eng(bank).Now()), Tile: m.tile, Comp: "l3dir", Event: ev,
			Key: la, A: int64(arr.sharers[w]), B: int64(arr.owner[w]),
		})
		s.checkDirectoryLine(bank, la, w, "pre:"+ev)
		defer s.checkDirectoryLine(bank, la, w, "post:"+ev)
	}
	s.bankHit(m, w)
}

// traceEvict records a private- or shared-cache eviction for violation
// dumps. lvl is "l2" or "l3".
func (s *System) traceEvict(lvl string, tile int, va uint64, victim *line, now event.Cycle) {
	if s.chk == nil {
		return
	}
	dirty := int64(0)
	if victim.has(fDirty) {
		dirty = 1
	}
	s.chk.Trace(sanitize.Record{
		Cycle: uint64(now), Tile: tile, Comp: lvl, Event: "evict",
		Key: va, A: int64(victim.state()), B: dirty,
	})
}

// traceFill records a private-cache fill completion.
func (s *System) traceFill(tile int, la uint64, granted state, now event.Cycle) {
	if s.chk == nil {
		return
	}
	s.chk.Trace(sanitize.Record{
		Cycle: uint64(now), Tile: tile, Comp: "l2", Event: "fill:" + granted.String(),
		Key: la, A: int64(granted),
	})
}

// Audit verifies the hierarchy's drained end-of-run state: every op record
// back on a freelist, all miss handling registers empty, L1 contents
// included in L2, and every directory entry consistent with the private
// caches. No-op without a checker; call only after the event queue has
// drained.
func (s *System) Audit() {
	if s.chk == nil {
		return
	}
	var access, miss, fill, float int
	for i := range s.lists {
		access += s.lists[i].access.Out()
		miss += s.lists[i].miss.Out()
		fill += s.lists[i].fill.Out()
		float += s.lists[i].float.Out()
	}
	if access != 0 || miss != 0 || fill != 0 || float != 0 {
		s.chk.Failf(0, "cache: run drained with op records outstanding: %d accessOp, %d missOp, %d fillOp, %d floatOp", access, miss, fill, float)
	}
	for t, tc := range s.tiles {
		if n := tc.mshr.Len(); n != 0 {
			for _, la := range tc.mshr.Keys(nil) {
				s.chk.Failf(la, "cache: tile %d finished the run with %d open MSHR entries (line %#x among them)", t, n, la)
			}
		}
		for la := range s.evicting[t] {
			s.chk.Failf(la, "cache: tile %d finished the run with the directory update of its eviction of line %#x never applied", t, la)
		}
		tc.l1.forEachValid(func(la uint64, _ *line) {
			if tc.l2.lookup(la) == nil {
				s.chk.Failf(la, "cache: tile %d L1 holds line %#x with no inclusive L2 copy", t, la)
			}
		})
	}
	for b := range s.banks {
		if n := s.fillMSHR[b].Len(); n != 0 {
			for _, la := range s.fillMSHR[b].Keys(nil) {
				s.chk.Failf(la, "cache: bank %d finished the run with %d open fill-MSHR entries (line %#x among them)", b, n, la)
			}
		}
		arr := s.banks[b]
		arr.forEachValid(func(la uint64, l *line) {
			s.checkDirectoryLine(b, la, arr.indexOf(l), "audit")
		})
	}
}

// FlipSharerBit is a test-only fault hook: it flips one sharer bit of the
// directory entry for la at its home bank, seeding exactly the kind of
// silent coherence corruption the MESI probe exists to catch. It reports
// whether the entry was present to corrupt.
func (s *System) FlipSharerBit(la uint64, tile int) bool {
	arr := s.banks[s.HomeBank(la)]
	l := arr.lookup(la)
	if l == nil {
		return false
	}
	arr.sharers[arr.indexOf(l)] ^= 1 << uint(tile)
	return true
}

// ForEachDirectoryLine visits every valid L3 directory entry (fault-site
// selection for sanitizer tests).
func (s *System) ForEachDirectoryLine(fn func(bank int, la uint64, sharers uint64, owner int)) {
	for b, arr := range s.banks {
		arr.forEachValid(func(la uint64, l *line) {
			w := arr.indexOf(l)
			fn(b, la, arr.sharers[w], int(arr.owner[w]))
		})
	}
}
