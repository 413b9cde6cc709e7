package experiments

import (
	"fmt"

	"streamfloat/internal/config"
	"streamfloat/internal/sample"
)

// PointEstimate is one sampled simulation's estimate, attributed to the
// sweep point that produced it.
type PointEstimate struct {
	Bench  string `json:"bench"`
	System string `json:"system"`
	Core   string `json:"core"`
	// Variant distinguishes mutated points (Fig15's prefetcher variants,
	// Fig16's link sweeps, ...) that share bench/system/core.
	Variant string          `json:"variant,omitempty"`
	Cycles  sample.Estimate `json:"cycles"`
	Energy  sample.Estimate `json:"energy"`
	// Speedup is the work-reduction bound of the point's sampling plan:
	// full-run iterations over iterations simulated in detail.
	Speedup float64 `json:"speedup"`
}

// newPointEstimate attributes one sampled run's estimate to its point.
func newPointEstimate(k runKey, r *sample.Result) PointEstimate {
	return PointEstimate{
		Bench:   k.bench,
		System:  k.system,
		Core:    k.core.String(),
		Variant: k.variant(),
		Cycles:  r.Cycles,
		Energy:  r.Energy,
		Speedup: r.Speedup(),
	}
}

// SamplingSummary describes the sampled-simulation run behind one table.
type SamplingSummary struct {
	Intervals int   `json:"intervals"`
	Measure   int   `json:"measure"`
	Seed      int64 `json:"seed"`
	// Points holds the per-point estimates computed for this table, sorted
	// by (bench, system, core, variant). Cache-served points are absent.
	Points []PointEstimate `json:"points"`
	// MeanSpeedup is the arithmetic mean work reduction across Points.
	MeanSpeedup float64 `json:"mean_speedup"`
	// MaxRelCyclesCI / MaxRelEnergyCI are the worst relative 95% confidence
	// half-widths (half-width over mean) across Points.
	MaxRelCyclesCI float64 `json:"max_rel_cycles_ci"`
	MaxRelEnergyCI float64 `json:"max_rel_energy_ci"`
}

func newSamplingSummary(p config.SampleParams, pts []PointEstimate) *SamplingSummary {
	p = p.Resolved()
	s := &SamplingSummary{Intervals: p.Intervals, Measure: p.Measure, Seed: p.Seed, Points: pts}
	for _, pt := range pts {
		s.MeanSpeedup += pt.Speedup / float64(len(pts))
		s.MaxRelCyclesCI = max(s.MaxRelCyclesCI, pt.Cycles.RelHalfWidth())
		s.MaxRelEnergyCI = max(s.MaxRelEnergyCI, pt.Energy.RelHalfWidth())
	}
	return s
}

// note renders the one-line table footnote for a sampled sweep.
func (s *SamplingSummary) note() string {
	return fmt.Sprintf("sampled simulation (K=%d intervals, %d measured, seed %d): "+
		"%d fresh points, mean work reduction %.1fx, worst 95%% CI ±%.1f%% cycles / ±%.1f%% energy",
		s.Intervals, s.Measure, s.Seed, len(s.Points),
		s.MeanSpeedup, 100*s.MaxRelCyclesCI, 100*s.MaxRelEnergyCI)
}

// runFigure invokes one figure runner, provisioning an estimate log when
// the sweep samples (a failure log under KeepGoing) and stitching what they
// collected into the table. All, AllTables, ByName and WriteFigureCSVs all
// route through here — it is the only way to a figure — so every table
// carries its confidence intervals, failure footnotes and, when the per-
// simulation worker count forces a sweep-parallelism derate, a note saying
// so. name tags the sweep's goroutines for pprof attribution.
func runFigure(name string, fn func(Options) (*Table, error), opts Options) (*Table, error) {
	opts.figure = name
	if opts.Sample.Enabled() {
		opts.estimates = &pointLog[PointEstimate]{}
	}
	if opts.KeepGoing {
		opts.failures = &pointLog[PointFailure]{}
	}
	t, err := fn(opts)
	if err != nil || t == nil {
		return t, err
	}
	if pts := opts.estimates.sorted(); len(pts) > 0 {
		t.Sampling = newSamplingSummary(opts.Sample, pts)
		t.Notes = append(t.Notes, t.Sampling.note())
	}
	if pts := opts.failures.sorted(); len(pts) > 0 {
		t.Failures = pts
		for _, f := range pts {
			t.Notes = append(t.Notes, f.note())
		}
	}
	if n := opts.derateNote(); n != "" {
		t.Notes = append(t.Notes, n)
	}
	return t, nil
}
