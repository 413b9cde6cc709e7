package cache

// Functional cache warmup for sampled simulation (internal/sample).
//
// The fast-forward executor replays the memory footprint of unsampled
// iterations so that each measured interval starts from realistic tag state
// instead of a cold hierarchy. Warm accesses are purely functional: they
// update tag arrays, MESI/directory state and RRIP metadata exactly like the
// detailed protocol would once drained, but touch no statistics, schedule no
// events, send no mesh traffic, and never notify observers or the tracer.
// They therefore leave the machine in a state the end-of-run Audit accepts
// (directory entries only ever name tiles that hold the line) while costing
// a few map/array operations per access instead of a detailed protocol
// transaction.

// WarmShared warms the line's home L3 bank only, without granting any
// private copy. It models the steady state of a floated stream: the paper's
// floated streams read at the L3 via GetU, which never installs into private
// caches nor mutates the directory (§IV-A), so their footprint warms bank
// tag state alone.
func (s *System) WarmShared(addr uint64) {
	s.warmBankLine(LineAddr(addr))
}

// WarmPrivate warms the full path a demand access would leave behind once
// drained: the home bank entry, the tile's L2 with a MESI state consistent
// with the directory, and the tile's L1. write warms store footprints
// (exclusive ownership, dirty line); reads warm E when the line is otherwise
// idle and S when it is shared.
func (s *System) WarmPrivate(tile int, addr uint64, write bool) {
	la := LineAddr(addr)
	tc := s.tiles[tile]
	bank, w := s.warmBankLine(la)
	dl := &bank.lines[w]

	if write {
		// Take exclusive ownership: every other holder is invalidated, as
		// the GetX invalidation round would do.
		if o := int(bank.owner[w]); o >= 0 && o != tile {
			if l2 := s.tiles[o].l2.lookup(la); l2 != nil && (l2.has(fDirty) || l2.state() == stModified) {
				dl.set(fDirty, true)
			}
			s.invalidatePrivate(o, la)
		}
		for t := 0; t < s.ntiles; t++ {
			if t == tile || bank.sharers[w]&(1<<uint(t)) == 0 {
				continue
			}
			s.invalidatePrivate(t, la)
		}
		bank.sharers[w] = 0
		bank.owner[w] = int16(tile)
		s.warmFillL2(tile, la, stModified, true)
		s.warmFillL1(tile, la, true)
		return
	}

	// Read hitting our own private copy: pure replacement-state refresh.
	if l2 := tc.l2.lookup(la); l2 != nil && l2.state() != stInvalid {
		tc.l2.touch(l2)
		s.warmFillL1(tile, la, false)
		return
	}
	if int(bank.owner[w]) == tile {
		// Directory says we own it but the copy is gone (a detailed run can
		// leave an untracked private copy behind via the racing-fill path;
		// the mirror image is a stale ownership claim). Re-establish E.
		s.warmFillL2(tile, la, stExclusive, false)
		s.warmFillL1(tile, la, false)
		return
	}
	// Downgrade a remote owner to sharer, as an owner forward would.
	if o := int(bank.owner[w]); o >= 0 {
		otc := s.tiles[o]
		if ol2 := otc.l2.lookup(la); ol2 != nil {
			if ol2.has(fDirty) || ol2.state() == stModified {
				dl.set(fDirty, true)
			}
			if ol1 := otc.l1.lookup(la); ol1 != nil && ol1.has(fDirty) {
				dl.set(fDirty, true)
				ol1.set(fDirty, false)
			}
			ol2.setState(stShared)
			ol2.set(fDirty, false)
		}
		bank.sharers[w] |= 1 << uint(o)
		bank.owner[w] = noOwner
	}
	var st state
	if bank.owner[w] < 0 && bank.sharers[w] == 0 {
		bank.owner[w] = int16(tile)
		st = stExclusive
	} else {
		bank.sharers[w] |= 1 << uint(tile)
		st = stShared
	}
	s.warmFillL2(tile, la, st, false)
	s.warmFillL1(tile, la, false)
}

// warmBankLine returns la's home bank and the way holding its entry,
// installing it (with functional victim eviction) if absent and refreshing
// its replacement state if present.
func (s *System) warmBankLine(la uint64) (*array, int) {
	bank := s.HomeBank(la)
	arr := s.banks[bank]
	slot, hit := arr.probe(la)
	if hit {
		arr.touch(slot)
		return arr, arr.indexOf(slot)
	}
	if va, ok := arr.addrOf(slot); ok {
		s.warmEvictL3(bank, slot, va)
	}
	arr.insert(slot, la)
	return arr, arr.indexOf(slot)
}

// warmEvictL3 drops a bank victim and back-invalidates every private copy
// the directory names, preserving inclusion without traffic or stats.
func (s *System) warmEvictL3(bank int, victim *line, va uint64) {
	arr := s.banks[bank]
	w := arr.indexOf(victim)
	if o := int(arr.owner[w]); o >= 0 {
		s.invalidatePrivate(o, va)
	}
	for t := 0; t < s.ntiles; t++ {
		if arr.sharers[w]&(1<<uint(t)) != 0 {
			s.invalidatePrivate(t, va)
		}
	}
	arr.invalidate(victim)
}

// warmFillL2 installs (or upgrades) la in the tile's L2 with the given MESI
// state, evicting a victim functionally if needed.
func (s *System) warmFillL2(tile int, la uint64, st state, dirty bool) {
	tc := s.tiles[tile]
	slot, hit := tc.l2.probe(la)
	if hit {
		slot.setState(st)
		if dirty {
			slot.set(fDirty, true)
		}
		tc.l2.touch(slot)
		return
	}
	if va, ok := tc.l2.addrOf(slot); ok {
		s.warmEvictL2(tile, slot, va)
	}
	tc.l2.insert(slot, la)
	slot.setState(st)
	slot.set(fDirty, dirty)
}

// warmEvictL2 drops an L2 victim: L1 copy merges and back-invalidates, and
// the home directory forgets this tile — the drained end state of the PutS/
// PutM the detailed protocol would send.
func (s *System) warmEvictL2(tile int, victim *line, va uint64) {
	tc := s.tiles[tile]
	dirty := victim.has(fDirty) || victim.state() == stModified
	if l1 := tc.l1.lookup(va); l1 != nil {
		if l1.has(fDirty) {
			dirty = true
		}
		tc.l1.invalidate(l1)
	}
	s.banks[s.HomeBank(va)].forget(va, tile, dirty)
	tc.l2.invalidate(victim)
}

// warmFillL1 installs la in the tile's L1 (evicting via the already
// functional evictL1), or refreshes its replacement state on a warm hit.
func (s *System) warmFillL1(tile int, la uint64, dirty bool) {
	tc := s.tiles[tile]
	slot, hit := tc.l1.probe(la)
	if hit {
		tc.l1.touch(slot)
		if dirty {
			slot.set(fDirty, true)
		}
		return
	}
	if va, ok := tc.l1.addrOf(slot); ok {
		s.evictL1(tile, slot, va)
	}
	tc.l1.insert(slot, la)
	slot.set(fDirty, dirty)
}
