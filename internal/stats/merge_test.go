package stats

import (
	"math/rand"
	"reflect"
	"testing"
)

// fillSequential sets every summable field of s to a distinct value derived
// from seed, so a dropped field shows up as a mismatch.
func fillSequential(s *Stats, seed uint64) {
	v := reflect.ValueOf(s).Elem()
	n := seed
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			n++
			f.SetUint(n)
		case reflect.Float64:
			n++
			f.SetFloat(float64(n))
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				n++
				f.Index(j).SetUint(n)
			}
		default:
			panic("unhandled kind in fillSequential")
		}
	}
}

// TestMergeSumsEveryField: Merge must be an exact field-wise sum over the
// whole struct — the partitioned event kernel relies on shard-merged totals
// reproducing the single-threaded counters bit for bit.
func TestMergeSumsEveryField(t *testing.T) {
	var a, b, want Stats
	fillSequential(&a, 100)
	fillSequential(&b, 10_000)

	av, bv, wv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), reflect.ValueOf(&want).Elem()
	for i := 0; i < av.NumField(); i++ {
		switch av.Field(i).Kind() {
		case reflect.Uint64:
			wv.Field(i).SetUint(av.Field(i).Uint() + bv.Field(i).Uint())
		case reflect.Float64:
			wv.Field(i).SetFloat(av.Field(i).Float() + bv.Field(i).Float())
		case reflect.Array:
			for j := 0; j < av.Field(i).Len(); j++ {
				wv.Field(i).Index(j).SetUint(av.Field(i).Index(j).Uint() + bv.Field(i).Index(j).Uint())
			}
		}
	}

	a.Merge(&b)
	if !reflect.DeepEqual(a, want) {
		t.Errorf("Merge dropped or miscombined a field:\n got %+v\nwant %+v", a, want)
	}
}

// TestMergeZeroIsIdentity: merging a zero Stats changes nothing.
func TestMergeZeroIsIdentity(t *testing.T) {
	var a, zero Stats
	fillSequential(&a, uint64(rand.Int63n(1000)))
	before := a
	a.Merge(&zero)
	if a != before {
		t.Error("merging zero stats changed the receiver")
	}
}

// TestMergeOrderIndependent: shard merge order cannot matter for integer
// counters (and the float fields are zero until after the merge).
func TestMergeOrderIndependent(t *testing.T) {
	var a1, a2, b, c Stats
	fillSequential(&b, 7)
	fillSequential(&c, 12345)
	a1.Merge(&b)
	a1.Merge(&c)
	a2.Merge(&c)
	a2.Merge(&b)
	if a1 != a2 {
		t.Error("merge is order-dependent")
	}
}

// TestSubUndoesMerge: Sub is Merge's exact inverse on every field.
func TestSubUndoesMerge(t *testing.T) {
	var a, b Stats
	fillSequential(&a, 100)
	fillSequential(&b, 10_000)
	before := a
	a.Merge(&b)
	a.Sub(&b)
	if a != before {
		t.Errorf("Sub after Merge:\n got %+v\nwant %+v", a, before)
	}
}

// TestScaleRoundsIntegerCounters: Scale multiplies floats exactly and rounds
// integer counters (array elements included) to the nearest whole event.
func TestScaleRoundsIntegerCounters(t *testing.T) {
	s := Stats{Cycles: 3, EnergyJ: 3}
	s.LoadLatency[0] = 5
	s.Scale(0.5)
	if s.Cycles != 2 || s.EnergyJ != 1.5 || s.LoadLatency[0] != 3 {
		t.Errorf("Scale(0.5) = cycles %d, energy %v, latency[0] %d; want 2, 1.5, 3",
			s.Cycles, s.EnergyJ, s.LoadLatency[0])
	}
}

// BenchmarkMerge prices one shard fold; the sampler's barrier poll pays it
// once per shard every poll period.
func BenchmarkMerge(b *testing.B) {
	var a, o Stats
	fillSequential(&o, 7)
	for i := 0; i < b.N; i++ {
		a.Merge(&o)
	}
}
