package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/system"
)

// sampledOpts is the spot sweep for sampled-path tests: small scale, short
// benchmarks, a plan small enough that every system still slices.
func sampledOpts() Options {
	return Options{
		Scale:      0.05,
		Benchmarks: []string{"nn", "conv3d"},
		Sample:     config.SampleParams{Intervals: 8, Measure: 2, Seed: 1},
	}
}

// TestSampledSweepParallelismInvariance: a sampled sweep produces
// bit-identical results and estimates at -par 1, 4 and GOMAXPROCS. Each
// point's replicates run sequentially inside one simulation, so sweep-level
// parallelism must not perturb anything.
func TestSampledSweepParallelismInvariance(t *testing.T) {
	keys := []runKey{
		{bench: "nn", system: "Base", core: config.IO4},
		{bench: "nn", system: "SF", core: config.IO4},
		{bench: "conv3d", system: "SF", core: config.IO4},
	}
	type outcome struct {
		res []system.Results
		pts []PointEstimate
	}
	var outcomes []outcome
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts := sampledOpts()
		opts.Parallelism = par
		res, pts, _, err := runRecords(opts.context(), opts, keys)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		outcomes = append(outcomes, outcome{res, pts})
	}
	for i := 1; i < len(outcomes); i++ {
		if !reflect.DeepEqual(outcomes[0].res, outcomes[i].res) {
			t.Error("sampled sweep results differ across parallelism levels")
		}
		if !reflect.DeepEqual(outcomes[0].pts, outcomes[i].pts) {
			t.Error("sampled estimates differ across parallelism levels")
		}
	}
	if len(outcomes[0].pts) != len(keys) {
		t.Fatalf("logged %d estimates, want %d", len(outcomes[0].pts), len(keys))
	}
	for _, p := range outcomes[0].pts {
		if p.Speedup <= 1 {
			t.Errorf("%s/%s: sampled point saved no work (speedup %.2f)", p.Bench, p.System, p.Speedup)
		}
	}

	// Fig 16's mutated points share bench/system/core: each must carry its
	// link width as its variant, in one order at every parallelism.
	fig16, _ := ByName("16")
	var fig16Pts [][]PointEstimate
	for _, par := range []int{1, 4} {
		opts := sampledOpts()
		opts.Scale = 0.02
		opts.Benchmarks = []string{"nn"}
		opts.Parallelism = par
		tb, err := fig16(opts)
		if err != nil {
			t.Fatalf("fig16 par %d: %v", par, err)
		}
		fig16Pts = append(fig16Pts, tb.Sampling.Points)
	}
	var got []string
	for _, p := range fig16Pts[0] {
		got = append(got, p.System+"/"+p.Variant)
	}
	want := []string{"Bingo/128-bit", "Bingo/256-bit", "Bingo/512-bit", "SF/128-bit", "SF/256-bit", "SF/512-bit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fig16 sampled points %v, want %v", got, want)
	}
	if !reflect.DeepEqual(fig16Pts[0], fig16Pts[1]) {
		t.Error("fig16 sampled estimates differ across parallelism levels")
	}
}

// sampleSpyCache records every point a sampled sweep offers to a PointCache.
type sampleSpyCache struct {
	mu   sync.Mutex
	cfgs []config.Config
	keys []string
}

func (c *sampleSpyCache) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	return system.Results{}, nil
}

func (c *sampleSpyCache) DoPoint(ctx context.Context, key string, cfg config.Config, bench string, scale float64, compute func() (system.Results, error)) (system.Results, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfgs = append(c.cfgs, cfg)
	c.keys = append(c.keys, key)
	return system.Results{Benchmark: bench, Config: cfg}, nil
}

// TestPointCacheSeesSample: a sampled sweep hands the cache the config with
// the sampling parameters set, under a key distinct from the full run's —
// cluster backends re-simulate the exact sampled point, and cached sampled
// results can never serve a full-fidelity request.
func TestPointCacheSeesSample(t *testing.T) {
	spy := &sampleSpyCache{}
	opts := sampledOpts()
	opts.Cache = spy
	keys := []runKey{{bench: "nn", system: "SF", core: config.OOO8}}
	if _, err := runAll(opts.context(), opts, keys); err != nil {
		t.Fatal(err)
	}
	if len(spy.cfgs) != 1 {
		t.Fatalf("cache saw %d points, want 1", len(spy.cfgs))
	}
	if spy.cfgs[0].Sample != opts.Sample {
		t.Errorf("cache saw Sample %+v, want %+v", spy.cfgs[0].Sample, opts.Sample)
	}
	full := spy.cfgs[0]
	full.Sample = config.SampleParams{}
	if spy.keys[0] == system.CacheKey(full, "nn", opts.scale()) {
		t.Error("sampled point shares the full run's cache key")
	}
}

// TestSamplingSummaryMin: the footnote names the point that saved least, so
// a sweep whose mean work reduction falls short says which kernel ran
// whole.
func TestSamplingSummaryMin(t *testing.T) {
	s := newSamplingSummary(config.SampleParams{Intervals: 16}, []PointEstimate{
		{Bench: "conv3d", System: "SF", Speedup: 3.37},
		{Bench: "nw", System: "Base", Speedup: 1},
		{Bench: "nw", System: "SF", Speedup: 1},
		{Bench: "srad", System: "SF", Speedup: 3.37},
	})
	if s.MinSpeedup != 1 || s.MinBench != "nw" {
		t.Errorf("min work reduction %.2f at %q, want 1.00 at nw", s.MinSpeedup, s.MinBench)
	}
	if n := s.note(); !strings.Contains(n, "min 1.00x: nw") {
		t.Errorf("note %q does not name the least-reduced benchmark", n)
	}
}

// TestSampledFigureSummary: a sampled figure run through ByName carries the
// per-point estimates and the rendered footnote.
func TestSampledFigureSummary(t *testing.T) {
	fn, ok := ByName("14")
	if !ok {
		t.Fatal("figure 14 not registered")
	}
	opts := sampledOpts()
	opts.Benchmarks = []string{"nn"}
	tbl, err := fn(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Sampling
	if s == nil {
		t.Fatal("sampled figure has no sampling summary")
	}
	if s.Intervals != 8 || s.Measure != 2 || s.Seed != 1 {
		t.Errorf("summary params %d/%d/%d, want 8/2/1", s.Intervals, s.Measure, s.Seed)
	}
	if len(s.Points) != 1 || s.Points[0].Bench != "nn" || s.Points[0].System != "SF" {
		t.Errorf("summary points %+v, want one nn/SF point", s.Points)
	}
	if s.MeanSpeedup <= 1 {
		t.Errorf("mean speedup %.2f, want > 1", s.MeanSpeedup)
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "sampled simulation") {
			found = true
		}
	}
	if !found {
		t.Error("sampled table is missing the sampling footnote")
	}
	// The same runner without sampling must stay clean.
	plain := sampledOpts()
	plain.Sample = config.SampleParams{}
	plain.Benchmarks = []string{"nn"}
	tbl, err = fn(plain)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Sampling != nil {
		t.Error("unsampled figure grew a sampling summary")
	}
}

// TestWriteJSONRoundTrip: the -json report parses back and carries the
// figure names, metrics and sampling CI fields.
func TestWriteJSONRoundTrip(t *testing.T) {
	tables := []NamedTable{{
		Name: "fig14",
		Table: &Table{
			Title:   "t",
			Header:  []string{"a"},
			Rows:    [][]string{{"1"}},
			Metrics: map[string]float64{"floated-share": 0.5},
			Sampling: &SamplingSummary{
				Intervals: 16, Measure: 3,
				Points:         []PointEstimate{{Bench: "nn", System: "SF", Core: "OOO8"}},
				MeanSpeedup:    3.7,
				MaxRelCyclesCI: 0.1,
			},
		},
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tables); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Figures []struct {
			Name  string `json:"name"`
			Table struct {
				Metrics  map[string]float64 `json:"metrics"`
				Sampling *SamplingSummary   `json:"sampling"`
			} `json:"table"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, buf.String())
	}
	if len(got.Figures) != 1 || got.Figures[0].Name != "fig14" {
		t.Fatalf("report figures %+v", got.Figures)
	}
	tb := got.Figures[0].Table
	if tb.Metrics["floated-share"] != 0.5 {
		t.Error("metrics lost in JSON round trip")
	}
	if tb.Sampling == nil || tb.Sampling.MeanSpeedup != 3.7 || len(tb.Sampling.Points) != 1 {
		t.Errorf("sampling summary lost in JSON round trip: %+v", tb.Sampling)
	}
}

// TestSampledGoldenAccuracy is the accuracy-validation regression gate: at
// the acceptance scale (0.25), every Fig13 spot point's full-fidelity cycle
// count and energy must land inside the sampled run's 95% confidence
// interval, Fig14's floated-share must match within 5 points absolute, and
// the sampling summary must report at least the 3x work reduction. Skipped
// in -short: it runs the full Fig13 spot column (15 detailed simulations).
func TestSampledGoldenAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity reference sweeps are slow")
	}
	base := Options{Scale: 0.25, Benchmarks: []string{"nn"}}
	sampled := base
	sampled.Sample = config.SampleParams{Intervals: 16}

	// Fig 13: per-point CI containment across every system and core.
	var keys []runKey
	for _, core := range []config.CoreKind{config.IO4, config.OOO4, config.OOO8} {
		for _, sys := range []string{"Base", "Stride", "Bingo", "SS", "SF"} {
			keys = append(keys, runKey{bench: "nn", system: sys, core: core})
		}
	}
	full, err := runAll(base.context(), base, keys)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]system.Results, len(keys))
	for i, k := range keys {
		ref[k.system+"/"+k.core.String()] = full[i]
	}
	_, pts, _, err := runRecords(sampled.context(), sampled, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(keys) {
		t.Fatalf("sampled sweep logged %d estimates, want %d", len(pts), len(keys))
	}
	var meanSpeedup float64
	for _, p := range pts {
		id := p.System + "/" + p.Core
		r, ok := ref[id]
		if !ok {
			t.Fatalf("no full-fidelity reference for %s", id)
		}
		if fc := float64(r.Stats.Cycles); !p.Cycles.Contains(fc) {
			t.Errorf("%s: full cycles %.0f outside sampled 95%% CI %.0f±%.0f",
				id, fc, p.Cycles.Mean, p.Cycles.HalfWidth)
		}
		if fe := r.Stats.EnergyJ; !p.Energy.Contains(fe) {
			t.Errorf("%s: full energy %.3g outside sampled 95%% CI %.3g±%.3g",
				id, fe, p.Energy.Mean, p.Energy.HalfWidth)
		}
		meanSpeedup += p.Speedup / float64(len(pts))
	}
	if meanSpeedup < 3 {
		t.Errorf("Fig13 sampled work reduction %.2fx < 3x", meanSpeedup)
	}

	// Fig 14: L3 request-origin share within 5 points absolute.
	full14 := figureTable(t, "14", base)
	samp14 := figureTable(t, "14", sampled)
	if math.Abs(samp14.Metrics["floated-share"]-full14.Metrics["floated-share"]) > 0.05 {
		t.Errorf("Fig14 floated-share: sampled %.4f vs full %.4f",
			samp14.Metrics["floated-share"], full14.Metrics["floated-share"])
	}
}
