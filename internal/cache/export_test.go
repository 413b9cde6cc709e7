package cache

import "unsafe"

// SlabBytes reports, summed over every array of the hierarchy, the bytes
// its slab holds, the bytes of the blocks the run filled, and what the
// arrays would hold if every set had its ways: a line plus its tag per way.
func (s *System) SlabBytes() (held, filled, dense int) {
	const way = int(unsafe.Sizeof(line{}) + unsafe.Sizeof(slab{}.tags[0]))
	add := func(a *array) {
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
