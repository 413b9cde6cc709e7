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
	// Variant is the label of a mutated point's axis entry ("Stride+bulk",
	// "256-bit", ...), which tells apart points sharing bench/system/core.
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
		Variant: k.variant,
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
	// by (bench, system, core, variant, grid index). Cache-served points are
	// absent.
	Points []PointEstimate `json:"points"`
	// MeanSpeedup is the arithmetic mean work reduction across Points.
	MeanSpeedup float64 `json:"mean_speedup"`
	// MinSpeedup is the smallest per-point work reduction and MinBench the
	// benchmark of the first point reaching it: a kernel whose phases are
	// too short to slice runs whole (1.00x) and drags the mean down.
	MinSpeedup float64 `json:"min_speedup"`
	MinBench   string  `json:"min_bench"`
	// MaxRelCyclesCI / MaxRelEnergyCI are the worst relative 95% confidence
	// half-widths (half-width over mean) across Points.
	MaxRelCyclesCI float64 `json:"max_rel_cycles_ci"`
	MaxRelEnergyCI float64 `json:"max_rel_energy_ci"`
}

func newSamplingSummary(p config.SampleParams, pts []PointEstimate) *SamplingSummary {
	p = p.Resolved()
	s := &SamplingSummary{Intervals: p.Intervals, Measure: p.Measure, Seed: p.Seed, Points: pts}
	for i, pt := range pts {
		s.MeanSpeedup += pt.Speedup / float64(len(pts))
		if i == 0 || pt.Speedup < s.MinSpeedup {
			s.MinSpeedup, s.MinBench = pt.Speedup, pt.Bench
		}
		s.MaxRelCyclesCI = max(s.MaxRelCyclesCI, pt.Cycles.RelHalfWidth())
		s.MaxRelEnergyCI = max(s.MaxRelEnergyCI, pt.Energy.RelHalfWidth())
	}
	return s
}

// note renders the one-line table footnote for a sampled sweep.
func (s *SamplingSummary) note() string {
	return fmt.Sprintf("sampled simulation (K=%d intervals, %d measured, seed %d): "+
		"%d fresh points, mean work reduction %.1fx (min %.2fx: %s), worst 95%% CI ±%.1f%% cycles / ±%.1f%% energy",
		s.Intervals, s.Measure, s.Seed, len(s.Points),
		s.MeanSpeedup, s.MinSpeedup, s.MinBench, 100*s.MaxRelCyclesCI, 100*s.MaxRelEnergyCI)
}
