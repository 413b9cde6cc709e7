package cache

import "unsafe"

// wayBytes is what one way of an array costs: its line and tag, and in a
// bank (directory) its sharer vector and owner.
func wayBytes(directory bool) int {
	var a array
	n := unsafe.Sizeof(a.lines[0]) + unsafe.Sizeof(a.tags[0])
	if directory {
		n += unsafe.Sizeof(a.sharers[0]) + unsafe.Sizeof(a.owner[0])
	}
	return int(n)
}

// SlabBytes reports, summed over every array of the hierarchy (see
// wayBytes), the bytes its slab holds, the bytes of the sets' blocks, the
// bytes of the ways that hold a line, and what the arrays would hold if
// every set had all its ways.
func (s *System) SlabBytes() (held, blocks, lines, dense int) {
	add := func(a *array) {
		way := wayBytes(a.directory)
		held += len(a.lines) * way
		dense += a.sets * a.ways * way
		for _, d := range a.dir {
			if d == 0 {
				continue
			}
			base, n := a.block(d)
			blocks += n * way
			for _, tag := range a.tags[base : base+n] {
				if tag != 0 {
					lines += way
				}
			}
		}
	}
	for i, tc := range s.tiles {
		add(tc.l1)
		add(tc.l2)
		add(s.banks[i])
	}
	return held, blocks, lines, dense
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
