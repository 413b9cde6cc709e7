package linetab

import (
	"math/rand"
	"slices"
	"testing"
)

// check holds t against the reference map: same length, every reference key
// present with its value, and Keys ascending and equal to the map's keys.
func check(t *testing.T, step int, tab *Table[int], ref map[uint64]int) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, want %d", step, tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("step %d: Get(%#x) = %d, %v; want %d, true", step, k, got, ok, want)
		}
	}
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	if got := tab.Keys(nil); !slices.Equal(got, want) {
		t.Fatalf("step %d: Keys = %v, want %v", step, got, want)
	}
}

// TestTableMatchesMap runs seeded random put/get/delete sequences against a
// Go map. Key spaces are small so deletes hit and runs cluster; line-address
// keys (multiples of 64), dense sequence numbers and keys spread over the
// whole range all go through the same table, which grows from empty.
func TestTableMatchesMap(t *testing.T) {
	keyspaces := []struct {
		name string
		key  func(r *rand.Rand) uint64
	}{
		{"lines", func(r *rand.Rand) uint64 { return uint64(r.Intn(512)) * 64 }},
		{"seq", func(r *rand.Rand) uint64 { return uint64(r.Intn(300)) }},
		{"wide", func(r *rand.Rand) uint64 { return r.Uint64() % 1000 * 0x9E3779B97F4A7C15 }},
	}
	for _, ks := range keyspaces {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			var tab Table[int]
			ref := map[uint64]int{}
			peak := 0
			for step := 0; step < 4000; step++ {
				k := ks.key(r)
				switch op := r.Intn(10); {
				case op < 5:
					tab.Put(k, step)
					ref[k] = step
				case op < 8:
					gv, gok := tab.Delete(k)
					rv, rok := ref[k]
					if gok != rok || gv != rv {
						t.Fatalf("%s seed %d step %d: Delete(%#x) = %d, %v; want %d, %v", ks.name, seed, step, k, gv, gok, rv, rok)
					}
					delete(ref, k)
				case op < 9:
					p, existed := tab.Ref(k)
					if _, had := ref[k]; existed != had {
						t.Fatalf("%s seed %d step %d: Ref(%#x) existed = %v, want %v", ks.name, seed, step, k, existed, had)
					}
					*p += 1
					ref[k]++
				default:
					gv, gok := tab.Get(k)
					rv, rok := ref[k]
					if gok != rok || gv != rv || tab.Has(k) != rok {
						t.Fatalf("%s seed %d step %d: Get(%#x) = %d, %v; want %d, %v", ks.name, seed, step, k, gv, gok, rv, rok)
					}
				}
				peak = max(peak, len(ref))
				if step%97 == 0 {
					check(t, step, &tab, ref)
				}
			}
			check(t, -1, &tab, ref)
			if tab.Peak() != peak {
				t.Fatalf("%s seed %d: Peak = %d, want %d", ks.name, seed, tab.Peak(), peak)
			}
			tab.Clear()
			check(t, -2, &tab, map[uint64]int{})
		}
	}
}

// TestDeleteWrapsTableEnd builds probe runs that straddle the end of the slot
// array, deletes from them in every order, and checks the survivors are
// still found: backward-shift deletion must move entries across the wrap.
func TestDeleteWrapsTableEnd(t *testing.T) {
	var tab Table[int]
	tab.Reserve(1) // minSlots slots, so home() is fixed below
	size := uint64(len(tab.slots))
	// Keys whose home is one of the last two slots, so their run wraps.
	var keys []uint64
	for k := uint64(0); len(keys) < 3; k++ {
		if tab.home(k) >= size-2 {
			keys = append(keys, k)
		}
	}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, order := range orders {
		tab.Clear()
		ref := map[uint64]int{}
		for i, k := range keys {
			tab.Put(k, i)
			ref[k] = i
		}
		if len(tab.slots) != int(size) {
			t.Fatalf("table grew to %d slots; the wrap case needs %d", len(tab.slots), size)
		}
		if !tab.slots[0].used {
			t.Fatalf("no entry wrapped to slot 0: %+v", tab.slots)
		}
		for _, i := range order {
			tab.Delete(keys[i])
			delete(ref, keys[i])
			check(t, i, &tab, ref)
		}
	}
}

// TestSteadyStateZeroAlloc pins the property the model relies on: once a
// table has reached its working size, insert/delete churn allocates nothing,
// whether keys go in through Put or through Ref's find-or-insert (the MSHR
// path), and Ref tells a new key from a present one throughout.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var tab Table[*int]
	v := new(int)
	for k := uint64(0); k < 64; k++ {
		tab.Put(k*64, v)
	}
	for k := uint64(0); k < 64; k++ {
		tab.Delete(k * 64)
	}
	next, wrong := uint64(0), 0
	allocs := testing.AllocsPerRun(1000, func() {
		for i := uint64(0); i < 32; i++ {
			k := (next + i) * 64
			if i%2 == 0 {
				tab.Put(k, v)
			} else if p, existed := tab.Ref(k); existed {
				wrong++
			} else {
				*p = v
			}
			if p, existed := tab.Ref(k); !existed || *p != v {
				wrong++
			}
		}
		for i := uint64(0); i < 32; i++ {
			tab.Delete((next + i) * 64)
		}
		next += 32
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f objects per run, want 0", allocs)
	}
	if wrong != 0 {
		t.Fatalf("Ref's existed result was wrong %d times during churn", wrong)
	}
}
