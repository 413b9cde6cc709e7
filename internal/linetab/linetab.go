// Package linetab provides Table, the open-addressed hash table the machine
// model keeps its per-line and per-sequence-number state in: MSHRs keyed by
// line address, stream-engine windows keyed by line sequence or element
// number. It replaces Go maps on the per-access path. A lookup is one
// multiply, a shift and a short linear probe over a flat slice — no hashing
// call, no bucket indirection — and a steady-state table allocates nothing:
// it grows by doubling when half full and never shrinks, so it stays at its
// high-water size for the rest of the machine's life.
//
// Deletion shifts the following run of the probe sequence back into the
// hole instead of leaving a tombstone, so a table that sees endless
// insert/delete churn (an MSHR) never degrades and never needs a rehash.
package linetab

import "slices"

// slot is one table entry; used tells a stored key 0 from an empty slot.
type slot[V any] struct {
	key  uint64
	val  V
	used bool
}

// Table maps uint64 keys to values of type V. The zero value is an empty
// table ready to use. A Table is not safe for concurrent use; in the
// simulator each one belongs to one tile's execution context.
type Table[V any] struct {
	slots []slot[V]
	mask  uint64 // len(slots)-1; len(slots) is a power of two
	shift uint   // 64 - log2(len(slots))
	n     int
	peak  int
}

// minSlots is the size of a table's first allocation.
const minSlots = 8

// home is k's preferred slot: Fibonacci hashing, whose top bits spread both
// line addresses (multiples of 64) and dense sequence numbers evenly.
func (t *Table[V]) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns the slot index holding k, or -1.
func (t *Table[V]) find(k uint64) int {
	if t.n == 0 {
		return -1
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if s.key == k {
			return int(i)
		}
	}
}

// Len reports the number of stored keys.
func (t *Table[V]) Len() int { return t.n }

// Peak reports the largest Len the table has ever had.
func (t *Table[V]) Peak() int { return t.peak }

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (t *Table[V]) Has(k uint64) bool { return t.find(k) >= 0 }

// Ref returns a pointer to k's value, inserting the zero value first if k is
// absent, and whether k was already present: a find-or-insert in one probe.
// The pointer is valid until the next Put, Ref or Delete.
func (t *Table[V]) Ref(k uint64) (v *V, existed bool) {
	if len(t.slots) > 0 {
		i := t.home(k)
		for ; t.slots[i].used; i = (i + 1) & t.mask {
			if t.slots[i].key == k {
				return &t.slots[i].val, true
			}
		}
		if 2*(t.n+1) <= len(t.slots) {
			t.claim(i, k)
			return &t.slots[i].val, false
		}
	}
	// Absent, and one more key would fill the table past half: grow first.
	t.resize(max(2*len(t.slots), minSlots))
	i := t.home(k)
	for t.slots[i].used {
		i = (i + 1) & t.mask
	}
	t.claim(i, k)
	return &t.slots[i].val, false
}

// Put stores v under k, replacing any previous value.
func (t *Table[V]) Put(k uint64, v V) {
	p, _ := t.Ref(k)
	*p = v
}

// claim stores the absent key k in the empty slot i.
func (t *Table[V]) claim(i, k uint64) {
	t.slots[i].key, t.slots[i].used = k, true
	t.n++
	if t.n > t.peak {
		t.peak = t.n
	}
}

// Reserve sizes the table to hold n keys without growing. A table whose
// working size is known up front (a stream buffer's share) allocates once
// instead of once per doubling.
func (t *Table[V]) Reserve(n int) {
	size := max(len(t.slots), minSlots)
	for 2*n > size {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize moves every entry into a new slot array of size slots, a power of
// two.
func (t *Table[V]) resize(size int) {
	old := t.slots
	t.slots = make([]slot[V], size)
	t.mask = uint64(size - 1)
	t.shift = uint(64)
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].used {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// Delete removes k and returns the value it held, if any.
func (t *Table[V]) Delete(k uint64) (V, bool) {
	var zero V
	i := t.find(k)
	if i < 0 {
		return zero, false
	}
	v := t.slots[i].val
	hole := uint64(i)
	// Backward-shift deletion: walk the run after the hole and move back
	// every entry whose probe sequence passes through it, so a lookup never
	// meets an empty slot before its key.
	for j := (hole + 1) & t.mask; t.slots[j].used; j = (j + 1) & t.mask {
		if (j-t.home(t.slots[j].key))&t.mask >= (j-hole)&t.mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
	return v, true
}

// Keys appends every stored key to dst in ascending order and returns it.
// Iteration order must never depend on the hash layout: callers that
// schedule events while draining a table use this.
func (t *Table[V]) Keys(dst []uint64) []uint64 {
	start := len(dst)
	for i := range t.slots {
		if t.slots[i].used {
			dst = append(dst, t.slots[i].key)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Clear removes every key, keeping the slot array (and the peak).
func (t *Table[V]) Clear() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	t.n = 0
}
