package cache

import "unsafe"

// wayBytes is what one way of an array costs: its line and tag, and in a
// bank (directory) its sharer vector and owner.
func wayBytes(directory bool) int {
	var sl slab
	n := unsafe.Sizeof(sl.lines[0]) + unsafe.Sizeof(sl.tags[0])
	if directory {
		n += unsafe.Sizeof(sl.sharers[0]) + unsafe.Sizeof(sl.owner[0])
	}
	return int(n)
}

// SlabBytes reports, summed over every array of the hierarchy, the bytes
// its slab holds, the bytes of the blocks the run filled, and what the
// arrays would hold if every set had its ways (see wayBytes).
func (s *System) SlabBytes() (held, filled, dense int) {
	add := func(a *array) {
		way := wayBytes(a.directory)
		held += len(a.lines) * way
		filled += a.blocks * a.ways * way
		dense += a.sets * a.ways * way
	}
	for i, tc := range s.tiles {
		add(tc.l1)
		add(tc.l2)
		add(s.banks[i])
	}
	return held, filled, dense
}

// entry returns a bank's directory entry for la, and whether the bank holds
// la at all.
func (a *array) entry(la uint64) (sharers uint64, owner int16, held bool) {
	l := a.lookup(la)
	if l == nil {
		return 0, 0, false
	}
	w := a.indexOf(l)
	return a.sharers[w], a.owner[w], true
}
