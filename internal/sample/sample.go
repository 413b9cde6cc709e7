package sample

import (
	"context"
	"fmt"
	"math"

	"streamfloat/internal/config"
	"streamfloat/internal/energy"
	"streamfloat/internal/event"
	"streamfloat/internal/mem"
	"streamfloat/internal/stats"
	"streamfloat/internal/system"
	"streamfloat/internal/workload"
)

// biasAllowance widens every confidence interval by this fraction of the
// estimate's magnitude, on top of the sampling standard error. It covers the
// estimator's known systematic error sources — per-interval barrier and
// pipeline ramp-up overcounting, warmup truncation, and the replication of
// unsliceable phases — which the t interval alone (a pure variance bound)
// cannot see. 5% tracks the accuracy-validation harness: full-run values sit
// well inside the widened intervals across the golden figure set.
const biasAllowance = 0.05

// Run runs bench at the given scale: the full detailed simulation when cfg
// does not enable sampling, otherwise the sampled estimator under cfg's
// sampling parameters, whose Results carry the estimate in Sampled and
// whose Stats are the mean of the scaled replicates. It is the one way to
// simulate an untraced point: figure sweeps, sfserve and the facade all run
// it, and the cache key already distinguishes sampled from full
// configurations. The detailed run is the one barrier-drained schedule,
// polled in barrier context, so estimates are deterministic in (cfg, bench,
// scale) regardless of shard layout, worker count or any caller-side sweep
// parallelism.
//
// The estimator is "the detailed run plus steady-rate extrapolation": one
// detailed window per phase — warmup prefix, measured block, drain epilogue
// (see Plan) — whose end-to-end time and counters already pay the phase's
// fixed head and tail costs exactly once, as the full run does. Only the
// skipped (Total - Detailed) iterations are added, at the rates measured
// between interior snapshots of the block. Each of the block's m intervals
// yields its own extrapolated whole-run estimate; their spread across
// intervals feeds the t-based confidence interval.
func Run(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
	if !cfg.Sample.Enabled() {
		return system.RunBenchmark(ctx, cfg, bench, scale)
	}
	sp := cfg.Sample.Resolved()
	cfg.Sample = sp
	if err := cfg.Validate(); err != nil {
		return system.Results{}, err
	}
	kernel, err := workload.New(bench)
	if err != nil {
		return system.Results{}, err
	}
	// One backing store serves warmup and the detailed run: detailed stores
	// are timing-only, so Prepare's functional memory stays pristine.
	bk := mem.NewBacking()
	progs := kernel.Prepare(bk, cfg.Tiles(), scale)
	pl := NewPlan(progs, sp)

	m, err := system.BuildPrepared(cfg, bench, bk, pl.Programs())
	if err != nil {
		return system.Results{}, err
	}
	warmMachine(m, pl)

	// Each phase runs warmup, measured block and epilogue back to back (no
	// barrier in between, see Plan.Programs). A barrier-context poll
	// (Machine.PollEvery) snapshots the machine as the merged global
	// iteration counter crosses each interval
	// boundary of the block — every snapshot is taken together with the
	// cycle it happened at, so the segments between them are accounted
	// exactly no matter where the polls land.
	type snapshot struct {
		t    event.Cycle
		snap stats.Stats
	}
	wins := pl.MeasureWindows()
	// Per phase, the snapshot thresholds are the warmup midpoint followed
	// by the m+1 interval boundaries of the block: crosses[p][0] opens the
	// warm tail, crosses[p][1+s] brackets measured segment s.
	thrs := make([][]uint64, len(wins))
	crosses := make([][]snapshot, len(wins))
	ends := make([]snapshot, len(wins))
	type thrRef struct{ p, s int }
	var refs []thrRef
	for p, w := range wins {
		if len(w.Crossings) > 0 {
			thrs[p] = append([]uint64{w.WarmMid}, w.Crossings...)
		}
		crosses[p] = make([]snapshot, len(thrs[p]))
		for s := range thrs[p] {
			refs = append(refs, thrRef{p, s})
		}
	}
	next := 0
	record := func(now event.Cycle, snap stats.Stats) {
		r := refs[next]
		crosses[r.p][r.s] = snapshot{now, snap}
		next++
	}
	m.SetPhaseHook(func(p int, now event.Cycle, snap stats.Stats) {
		for next < len(refs) && refs[next].p <= p {
			record(now, snap) // thresholds the phase completed without crossing
		}
		ends[p] = snapshot{now, snap}
	})
	const pollPeriod = 256
	if len(refs) > 0 {
		m.PollEvery(pollPeriod, func(now event.Cycle, snap stats.Stats) bool {
			for next < len(refs) && snap.Iterations >= thrs[refs[next].p][refs[next].s] {
				record(now, snap)
			}
			return next < len(refs)
		})
	}

	res, err := m.RunContext(ctx, 0)
	if err != nil {
		return system.Results{}, fmt.Errorf("sample: %w", err)
	}
	m.Release() // everything below works from res and the snapshots
	if res.Stats.Iterations == 0 {
		return system.Results{}, fmt.Errorf("sample: %s: detailed window carried no work (K=%d, m=%d)",
			bench, sp.Intervals, sp.Measure)
	}

	// Per-interval whole-run estimates: the detailed run's totals plus each
	// phase's skipped iterations at the rate interval s measured. Counter
	// deltas are snapshot differences (every stats counter is cumulative
	// and monotone; Cycles/EnergyJ are zero in snapshots and recomputed
	// below).
	nseg := pl.m
	var cycles, energyW stats.Welford
	var scaled []stats.Stats
	for s := 0; s < nseg; s++ {
		est := res.Stats
		cycEst := float64(res.Stats.Cycles)
		informative := false
		var prevEnd snapshot
		for p, w := range wins {
			remain := float64(w.Total - w.Detailed)
			if remain > 0 {
				a, b := snapshot{}, snapshot{}
				if len(w.Crossings) > 0 {
					a, b = crosses[p][s+1], crosses[p][s+2]
				}
				if b.snap.Iterations == a.snap.Iterations {
					// Degenerate segment (tiny or unsliceable phase): fall
					// back to the whole-window average rate.
					a, b = prevEnd, ends[p]
				}
				if db := float64(b.snap.Iterations - a.snap.Iterations); db > 0 {
					cycEst += float64(b.t-a.t) / db * remain
					dS := b.snap
					dS.Sub(&a.snap)
					dS.Scale(remain / db)
					est.Merge(&dS)
					informative = true
				}
			}
			prevEnd = ends[p]
		}
		est.Cycles = uint64(math.Round(cycEst))
		energy.Apply(&est, cfg)
		cycles.Add(cycEst)
		energyW.Add(est.EnergyJ)
		scaled = append(scaled, est)
		if !informative && s == 0 {
			// Nothing was extrapolated anywhere: the detailed window covered
			// every phase completely, so the run is exact; one zero-width
			// replicate suffices.
			break
		}
	}
	numLinks := res.NumLinks

	// Ramp extrapolation. Some configurations approach steady state over a
	// horizon far longer than any affordable warmup: with in-order cores
	// the whole run is one long convergence ramp (per-iteration traffic is
	// flat; only queueing overlap slowly improves), so a constant-rate
	// extrapolation of the early block systematically overestimates. The
	// detailed run observes the ramp's own early section exactly — the
	// warm tail (second half of the warmup, past the startup transient)
	// and each measured segment give (position, rate) points along it — so
	// the estimator fits the hyperbolic ramp rate(i) = a + b/i per phase
	// and integrates it over the skipped iterations. For settled workloads
	// the fit degenerates to the constant model (b ~ 0). The two models'
	// disagreement is genuine estimator uncertainty that the replicate
	// variance cannot see, so it widens the interval as a model-gap term.
	constMean := cycles.Mean()
	rampEst := float64(res.Stats.Cycles)
	{
		var prevEnd snapshot
		for p, w := range wins {
			remain := float64(w.Total - w.Detailed)
			if remain <= 0 {
				prevEnd = ends[p]
				continue
			}
			s0 := float64(prevEnd.snap.Iterations)
			detIters := float64(ends[p].snap.Iterations) - s0
			total := float64(w.Total)
			var xs, ys, wts []float64
			for j := 0; j+1 < len(crosses[p]); j++ {
				a, b := crosses[p][j], crosses[p][j+1]
				di := float64(b.snap.Iterations - a.snap.Iterations)
				mid := (float64(a.snap.Iterations)+float64(b.snap.Iterations))/2 - s0
				if di <= 0 || mid <= 0 {
					continue
				}
				xs = append(xs, 1/mid)
				ys = append(ys, float64(b.t-a.t)/di)
				wts = append(wts, di)
			}
			contribution := 0.0
			if di := float64(ends[p].snap.Iterations - prevEnd.snap.Iterations); di > 0 {
				contribution = float64(ends[p].t-prevEnd.t) / di * remain
			}
			if a, b, _, ok := fitRamp(xs, ys, wts); ok && detIters > 0 && total > detIters {
				if c := a*(total-detIters) + b*math.Log(total/detIters); c > 0 {
					contribution = c
				}
			}
			rampEst += contribution
			prevEnd = ends[p]
		}
	}
	modelGap := math.Abs(rampEst - constMean)
	relGap := 0.0
	if constMean > 0 {
		relGap = modelGap / constMean
	}

	mean := meanStats(scaled)
	mean.Cycles = uint64(math.Round(rampEst))
	energy.Apply(&mean, cfg)
	return system.Results{
		Benchmark: bench,
		Config:    cfg,
		Stats:     mean,
		NumLinks:  numLinks,
		Sampled: &system.Sampled{
			Cycles: stats.Estimate{
				Mean:      rampEst,
				HalfWidth: cycles.CI95() + modelGap + biasAllowance*math.Abs(rampEst),
				N:         cycles.N(),
			},
			Energy: stats.Estimate{
				Mean:      mean.EnergyJ,
				HalfWidth: energyW.CI95() + (relGap+biasAllowance)*math.Abs(mean.EnergyJ),
				N:         energyW.N(),
			},
			DetailedIters: pl.DetailedIters,
			TotalIters:    pl.TotalIters,
		},
	}, nil
}

// fitRamp fits rate = a + b*x (x = 1/position) by weighted least squares,
// returning the coefficient of determination r2 as the fit's confidence. A
// non-positive asymptotic rate a means the hyperbolic model is untenable
// for these points, so the fit falls back to the constant weighted mean.
func fitRamp(xs, ys, wts []float64) (a, b, r2 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	var sw, mx, my float64
	for j := range xs {
		sw += wts[j]
		mx += wts[j] * xs[j]
		my += wts[j] * ys[j]
	}
	mx /= sw
	my /= sw
	var sxx, sxy, syy float64
	for j := range xs {
		dx, dy := xs[j]-mx, ys[j]-my
		sxx += wts[j] * dx * dx
		sxy += wts[j] * dx * dy
		syy += wts[j] * dy * dy
	}
	if sxx == 0 || syy == 0 {
		return my, 0, 0, true
	}
	b = sxy / sxx
	a = my - b*mx
	if a <= 0 {
		return my, 0, 0, true
	}
	return a, b, sxy * sxy / (sxx * syy), true
}

// meanStats returns the elementwise mean of the scaled replicates.
func meanStats(xs []stats.Stats) stats.Stats {
	if len(xs) == 1 {
		return xs[0]
	}
	sum := xs[0]
	for i := 1; i < len(xs); i++ {
		sum.Merge(&xs[i])
	}
	sum.Scale(1 / float64(len(xs)))
	return sum
}
