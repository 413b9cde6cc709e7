package sample

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/mem"
	"streamfloat/internal/stream"
	"streamfloat/internal/system"
	"streamfloat/internal/workload"
)

// TestSliceAffineExact: for randomized 1/2/3-level patterns (including
// zero and negative strides) and slices starting at any element, the sliced
// pattern's AddrAt(i) must equal the original's AddrAt(lo+i), and so must a
// slice of that slice (a pattern that already starts mid-row).
func TestSliceAffineExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	patterns := []stream.Affine{
		{Base: 0x1000, ElemSize: 8, Strides: [3]int64{8}, Lens: [3]int64{64}},
		{Base: 0x2000, ElemSize: 4, Strides: [3]int64{4, 512}, Lens: [3]int64{16, 9}},
		{Base: 0x9000, ElemSize: 8, Strides: [3]int64{8, 0}, Lens: [3]int64{32, 5}}, // zero outer stride (mv x[])
		{Base: 0x4000, ElemSize: 8, Strides: [3]int64{8, 1024, -65536}, Lens: [3]int64{8, 4, 6}},
		{Base: 0x8000, ElemSize: 4, Strides: [3]int64{0, 64, 4096}, Lens: [3]int64{0, 7, 11}}, // dead level 0
	}
	for r := 0; r < 40; r++ {
		patterns = append(patterns, stream.Affine{
			Base:     uint64(rng.Intn(1 << 20)),
			ElemSize: 8,
			Strides:  [3]int64{int64(rng.Intn(128) - 64), int64(rng.Intn(4096) - 2048), int64(rng.Intn(1 << 16))},
			Lens:     [3]int64{int64(rng.Intn(16)), int64(rng.Intn(8)), int64(rng.Intn(8))},
		})
	}
	check := func(pi int, a, s stream.Affine, lo, hi int64) {
		t.Helper()
		if err := (stream.Decl{Name: "s", Affine: &s}).Validate(); err != nil {
			t.Fatalf("pattern %d %+v slice [%d,%d): %v", pi, a, lo, hi, err)
		}
		if s.NumElems() < hi-lo {
			t.Fatalf("pattern %d: slice [%d,%d) has %d elems", pi, lo, hi, s.NumElems())
		}
		for i := int64(0); i < hi-lo; i++ {
			if got, want := s.AddrAt(i), a.AddrAt(lo+i); got != want {
				t.Fatalf("pattern %d %+v slice [%d,%d): AddrAt(%d) = %#x, want %#x",
					pi, a, lo, hi, i, got, want)
			}
		}
	}
	for pi, a := range patterns {
		n := a.NumElems()
		for lo := int64(0); lo < n; lo++ {
			hi := lo + 1 + rng.Int63n(n-lo)
			s := sliceAffine(a, lo, hi)
			check(pi, a, s, lo, hi)
			lo2 := rng.Int63n(hi - lo)
			hi2 := lo2 + 1 + rng.Int63n(hi-lo-lo2)
			check(pi, s, sliceAffine(s, lo2, hi2), lo2, hi2)
		}
	}
}

// preparedPlan builds the plan for one benchmark/config without simulating.
func preparedPlan(t *testing.T, cfg config.Config, bench string, scale float64) *Plan {
	t.Helper()
	kernel, err := workload.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	bk := mem.NewBacking()
	progs := kernel.Prepare(bk, cfg.Tiles(), scale)
	return NewPlan(progs, cfg.Sample)
}

// TestPlanPartition: the intervals of every phase tile the iteration space
// exactly, each holding ⌊n/K⌋ or ⌈n/K⌉ iterations, sliced programs
// validate, and total iteration counts agree.
func TestPlanPartition(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sample = config.SampleParams{Intervals: 8, Measure: 8} // measure all
	for _, bench := range workload.Names() {
		pl := preparedPlan(t, cfg, bench, 0.05)
		progs := pl.Programs()
		for c := range progs {
			if err := progs[c].Validate(); err != nil {
				t.Fatalf("%s core %d: %v", bench, c, err)
			}
		}
		// With every interval measured, sliceable phases contribute their
		// full span once and unsliceable phases K times.
		for c := range pl.progs {
			for i, pp := range pl.cores[c] {
				n := pl.progs[c].Phases[i].NumIters
				var sum int64
				for j := 0; j < pl.K; j++ {
					lo, hi := pp.bounds(j, n)
					if lo > hi {
						t.Fatalf("%s core %d phase %d interval %d: lo %d > hi %d", bench, c, i, j, lo, hi)
					}
					if k := int64(pl.K); pp.cut != nil && hi-lo != n/k && hi-lo != (n+k-1)/k {
						t.Fatalf("%s core %d phase %d interval %d: %d iters, want %d or %d",
							bench, c, i, j, hi-lo, n/k, (n+k-1)/k)
					}
					sum += hi - lo
				}
				if pp.cut != nil && sum != n {
					t.Fatalf("%s core %d phase %d: intervals cover %d of %d iters", bench, c, i, sum, n)
				}
			}
		}
		if pl.TotalIters <= 0 {
			t.Fatalf("%s: nonpositive total iters", bench)
		}
	}
}

// TestSampleBlock: fixed (k, m, seed) always picks the same block start;
// the seed shifts it; negative seeds are valid; the block keeps a
// predecessor interval for warmup and, when K allows, a successor for the
// drain epilogue.
func TestSampleBlock(t *testing.T) {
	if a, b := sampleBlock(16, 3, 7), sampleBlock(16, 3, 7); a != b {
		t.Fatalf("same seed produced starts %d and %d", a, b)
	}
	starts := map[int]bool{}
	for seed := int64(-20); seed < 20; seed++ {
		b := sampleBlock(16, 3, seed)
		if b < 1 || b+3 > 15 {
			t.Fatalf("seed %d: block [%d,%d) leaves no warm predecessor or epilogue successor", seed, b, b+3)
		}
		starts[b] = true
	}
	if len(starts) < 2 {
		t.Error("seed does not shift the block start")
	}
	if b := sampleBlock(4, 3, 5); b != 1 {
		t.Errorf("saturated block should start at 1, got %d", b)
	}
}

// TestWorkRatio: at scale 0.25, the default sampling parameters must leave
// at most a third of a kernel's iterations in detailed simulation whenever
// every phase of it holds at least 2K iterations per core — the plan-level
// guarantee behind the >= 3x speedup acceptance criterion. nw's wavefront
// phases are all too short to slice, so it runs whole. Purely
// combinatorial: no simulation runs, and the plan depends only on the
// prepared programs, so one system stands for all.
func TestWorkRatio(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sample = config.SampleParams{Intervals: 16}
	// Kernels whose phases are all long at this scale; the test is vacuous
	// for them if that stops holding.
	wantLong := map[string]bool{"mv": true, "conv3d": true, "cfd": true, "hotspot": true,
		"hotspot3D": true, "nn": true, "pathfinder": true, "srad": true}
	for _, bench := range workload.Names() {
		pl := preparedPlan(t, cfg, bench, 0.25)
		ratio := float64(pl.TotalIters) / float64(pl.DetailedIters)
		long := true
		for c := range pl.progs {
			for _, ph := range pl.progs[c].Phases {
				if ph.NumIters > 0 && ph.NumIters < 2*int64(pl.K) {
					long = false
				}
			}
		}
		if wantLong[bench] && !long {
			t.Errorf("%s: a phase holds fewer than 2K iterations per core at scale 0.25", bench)
		}
		switch {
		case bench == "nw":
			if ratio != 1 {
				t.Errorf("nw: work reduction %.2fx, want 1.00x (every phase runs whole)", ratio)
			}
		case long:
			if ratio < 3 {
				t.Errorf("%s: work reduction %.2fx < 3x", bench, ratio)
			}
		case ratio <= 1:
			t.Errorf("%s: sampling saved no work", bench)
		}
	}
}

// TestCacheKeyDistinct: sampled and full runs of one point must never share
// a cache key, and different sampling parameters must not collide either —
// the acceptance criterion guarding cached-result aliasing.
func TestCacheKeyDistinct(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	full := system.CacheKey(cfg, "nn", 0.25)
	sampled := cfg
	sampled.Sample = config.SampleParams{Intervals: 16}
	if k := system.CacheKey(sampled, "nn", 0.25); k == full {
		t.Fatal("sampled run shares the full run's cache key")
	}
	other := sampled
	other.Sample.Seed = 3
	if system.CacheKey(other, "nn", 0.25) == system.CacheKey(sampled, "nn", 0.25) {
		t.Fatal("different sample seeds share a cache key")
	}
}

// TestRunDispatch: with sampling disabled, Run is exactly RunBenchmark.
func TestRunDispatch(t *testing.T) {
	cfg, err := config.ForSystem("Base", config.IO4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), cfg, "nn", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	want, err := system.RunBenchmark(context.Background(), cfg, "nn", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Error("Run with sampling disabled diverges from RunBenchmark")
	}
}

// TestEstimateDeterministic: repeated sampled runs of one point are
// bit-identical — replicates run sequentially in a fixed order, so sweep
// parallelism above this layer cannot perturb estimates.
func TestEstimateDeterministic(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sample = config.SampleParams{Intervals: 8, Measure: 2, Seed: 1}
	a, err := Run(context.Background(), cfg, "nn", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, "nn", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sampled runs of one point differ")
	}
	if s := a.Sampled; s.Cycles.N == 0 || s.DetailedIters >= s.TotalIters {
		t.Fatalf("sampling did not reduce work: %+v", s)
	}
}

// TestAccuracySpot: at the acceptance-criterion scale (0.25), the full
// detailed run's cycles and energy must fall inside the sampled estimate's
// 95% confidence interval for the headline Base and SF systems. Skipped in
// -short: it runs two full detailed simulations.
func TestAccuracySpot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity reference runs are slow")
	}
	for _, sys := range []string{"Base", "SF"} {
		cfg, err := config.ForSystem(sys, config.OOO8)
		if err != nil {
			t.Fatal(err)
		}
		full, err := system.RunBenchmark(context.Background(), cfg, "nn", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sample = config.SampleParams{Intervals: 16}
		res, err := Run(context.Background(), cfg, "nn", 0.25)
		if err != nil {
			t.Fatal(err)
		}
		est := res.Sampled
		if got := est.Speedup(); got < 3 {
			t.Errorf("%s: sampled work reduction %.1fx < 3x", sys, got)
		}
		if v := float64(full.Stats.Cycles); !est.Cycles.Contains(v) {
			t.Errorf("%s: full cycles %.0f outside sampled CI %.0f ± %.0f",
				sys, v, est.Cycles.Mean, est.Cycles.HalfWidth)
		}
		if v := full.Stats.EnergyJ; !est.Energy.Contains(v) {
			t.Errorf("%s: full energy %g outside sampled CI %g ± %g",
				sys, v, est.Energy.Mean, est.Energy.HalfWidth)
		}
	}
}
