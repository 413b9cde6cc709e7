// Package sample implements sampled simulation: instead of running a
// kernel's full iteration space through the detailed event-driven model, it
// partitions each phase's outer iteration space into K intervals, picks a
// seeded contiguous block of them, fast-forwards functionally through the
// preceding work (warming cache tag state, see warm.go), runs one detailed
// window — warmup prefix, the measured block, a drain epilogue — and
// extrapolates the block's steady-state rates into whole-run estimates with
// t-based confidence intervals (see sample.go).
package sample

import (
	"streamfloat/internal/config"
	"streamfloat/internal/stream"
	"streamfloat/internal/workload"
)

// Plan partitions one prepared workload (the per-core programs of a
// benchmark at a given scale) into K intervals and records which of them a
// given sampling configuration measures in detail.
type Plan struct {
	// K is the interval count and Measured the measured interval indices: a
	// contiguous block of Measure intervals starting at a seeded offset.
	// The block is contiguous rather than scattered because every detached
	// detailed run pays the machine's startup transient — cores leave a
	// cold start (or any barrier) in lockstep and hammer the same DRAM
	// controller until queueing staggers them — which can span a large
	// fraction of one interval; measuring m adjacent intervals inside a
	// single detailed window pays that cost once instead of m times. The
	// block never starts at interval 0 (the warmup prefix needs preceding
	// iterations) and, when K allows, ends before the last interval (the
	// phase's drain tail must fall in the epilogue, not the measurement).
	K        int
	Measured []int

	// TotalIters is the full run's iteration count summed over cores and
	// phases; DetailedIters the portion simulated in detail (warmup prefix,
	// measured block and epilogue). Their ratio bounds the
	// detailed-simulation work the plan saves.
	TotalIters    int64
	DetailedIters int64

	params config.SampleParams
	progs  []workload.Program
	cores  [][]phasePlan // [core][phase]
	b, m   int           // block start interval and length
}

// phasePlan is the interval partition of one core's one phase. cut holds
// K+1 iteration boundaries; nil marks an unsliceable phase (unknown-length
// streams, or too few iterations, see minIntervalIters), which runs in full
// and contributes no extrapolation.
type phasePlan struct {
	cut []int64
}

func (pp phasePlan) bounds(j int, n int64) (lo, hi int64) {
	if pp.cut == nil {
		return 0, n
	}
	return pp.cut[j], pp.cut[j+1]
}

// NewPlan builds the interval partition for prepared programs under p
// (which must be enabled; callers resolve first).
func NewPlan(progs []workload.Program, p config.SampleParams) *Plan {
	p = p.Resolved()
	k := p.Intervals
	m := p.Measure
	if m > k-1 {
		m = k - 1
	}
	b := sampleBlock(k, m, p.Seed)
	pl := &Plan{
		K:        k,
		Measured: make([]int, m),
		params:   p,
		progs:    progs,
		b:        b,
		m:        m,
	}
	for i := range pl.Measured {
		pl.Measured[i] = b + i
	}
	pl.cores = make([][]phasePlan, len(progs))
	for c := range progs {
		phases := progs[c].Phases
		pl.cores[c] = make([]phasePlan, len(phases))
		for i := range phases {
			pl.cores[c][i] = planPhase(&phases[i], pl.K)
			pl.TotalIters += phases[i].NumIters
			wlo, _, _, ehi := pl.window(c, i)
			pl.DetailedIters += ehi - wlo
		}
	}
	return pl
}

// sampleBlock picks the starting interval of the measured block. The seed-0
// default centers the block in the run: workloads that drift toward steady
// state over many intervals (in-order cores ramping a stream engine's
// prefetch lead never fully settle) are measured where local rates best
// match the whole-run average, and the warmup prefix never clamps against
// iteration 0. Nonzero seeds rotate the start deterministically through the
// valid positions. Valid starts keep a predecessor interval before the
// block (warmup) and, when K allows, a successor after it (epilogue).
func sampleBlock(k, m int, seed int64) int {
	pool := k - m - 1
	if pool < 1 {
		pool = 1
	}
	center := int64(pool / 2)
	return 1 + int((((seed+center)%int64(pool))+int64(pool))%int64(pool))
}

// minIntervalIters is the fewest iterations per core an interval may hold.
// A phase whose K intervals would hold fewer runs whole: its measured block
// would be a handful of iterations, too short to outlast the detailed
// window's startup transient, and extrapolating it misestimates the phase
// badly (nw's wavefront diagonals, 16 iterations per core at every scale,
// erred by up to +650% sliced), while running it whole costs little.
const minIntervalIters = 2

// sliceAffine returns the pattern covering elements [lo, hi) of a, for any
// 0 <= lo < hi <= a.NumElems(): Base moves along the outermost stride to the
// outer row holding lo, Start becomes lo's offset in that row, and the outer
// length ends at the row holding hi-1. The sliced pattern's AddrAt(i)
// equals the original's AddrAt(lo+i) for every i in [0, hi-lo).
func sliceAffine(a stream.Affine, lo, hi int64) stream.Affine {
	// row is the element count of one outer row: the product of the
	// effective level lengths below the outermost effective level.
	row, outer := int64(1), -1
	for lv := 0; lv < stream.Levels; lv++ {
		if a.Lens[lv] <= 0 {
			continue
		}
		if outer >= 0 {
			row *= a.Lens[outer]
		}
		outer = lv
	}
	if outer < 0 {
		return a
	}
	first, last := a.Start+lo, a.Start+hi-1 // nest elements
	out := a
	out.Base = uint64(int64(a.Base) + (first/row)*a.Strides[outer])
	out.Start = first % row
	out.Lens[outer] = last/row - first/row + 1
	return out
}

// planPhase computes the interval partition of one phase: boundary j falls
// at iteration n·j/K, wherever that lands in the streams' rows (sliceAffine
// enters a stream mid-row). Phases with unknown-length streams, or fewer
// than minIntervalIters iterations per interval, are unsliceable.
func planPhase(ph *workload.Phase, k int) phasePlan {
	n := ph.NumIters
	if n < minIntervalIters*int64(k) {
		return phasePlan{} // too short to slice (or a barrier-only phase)
	}
	for _, ds := range [][]stream.Decl{ph.Loads, ph.Stores} {
		for _, d := range ds {
			if d.UnknownLength {
				return phasePlan{}
			}
		}
	}
	cut := make([]int64, k+1)
	for j := 1; j <= k; j++ {
		cut[j] = n * int64(j) / int64(k)
	}
	return phasePlan{cut: cut}
}

// window returns the detailed iteration window of one core's one phase:
// warmup prefix [wlo, lo), measured block [lo, hi), drain epilogue
// [hi, ehi). The warmup defaults to one and a half intervals — long enough
// to outlast the startup transient — and the epilogue to a quarter
// interval, so the phase-end drain (staggered cores finishing while the
// aggregate iteration rate decays) stays outside the measured block. An
// unsliceable phase's window is the whole phase.
func (pl *Plan) window(core, phase int) (wlo, lo, hi, ehi int64) {
	ph := &pl.progs[core].Phases[phase]
	pp := pl.cores[core][phase]
	n := ph.NumIters
	if pp.cut == nil {
		return 0, 0, n, n
	}
	lo = pp.cut[pl.b]
	hi = pp.cut[pl.b+pl.m]
	ilen := (hi - lo + int64(pl.m) - 1) / int64(pl.m)
	w := pl.params.Warmup
	if w <= 0 {
		w = ilen + ilen/2
	}
	e := ilen / 4
	wlo = lo - w
	if wlo < 0 {
		wlo = 0
	}
	ehi = hi + e
	if ehi > n {
		ehi = n
	}
	return wlo, lo, hi, ehi
}

// funcWarmWindow is the iteration range [flo, wlo) functionally replayed
// (cache-tag warmup only) before the detailed window of one core's one
// phase: the phase's entire skipped prefix. Partial warming is not enough —
// cache content reaches back over the whole reuse horizon of the L3, and an
// in-order core turns every spuriously cold miss straight into stall
// cycles — so the warmup replays every unsampled access, SMARTS-style.
// Functional replay carries no events or timing, so its cost stays a small
// fraction of the detailed window's.
func (pl *Plan) funcWarmWindow(core, phase int) (flo, wlo int64) {
	wlo, _, _, _ = pl.window(core, phase)
	return 0, wlo
}

// PhaseWindow is the estimator's view of one phase of the detailed run: the
// global iteration thresholds bracketing the measured block's interval
// boundaries, and the phase's full-run versus detailed iteration counts.
type PhaseWindow struct {
	// Crossings holds m+1 thresholds (summed over cores, cumulative across
	// phases): the live iteration counts at which the measured block and
	// each of its interval boundaries begin/end. The estimator snapshots
	// the machine as the run crosses each; consecutive pairs delimit the m
	// measured segments, all interior to the detailed window (past the
	// warmup, before the epilogue). Nil for an unsliceable phase, which
	// runs whole and contributes no extrapolation.
	Crossings []uint64
	// WarmMid is the global iteration threshold at the midpoint of the
	// warmup prefix. The segment [WarmMid, Crossings[0]) is the warm tail:
	// past the machine's startup transient but before the block, so a warm
	// tail still running faster or slower than the block means the machine
	// had not settled and the estimator widens its intervals by the
	// residual drift. Meaningful only when Crossings is non-nil.
	WarmMid uint64
	// Total is the phase's full-run iteration count over all cores;
	// Detailed the portion the detailed run simulates.
	Total, Detailed int64
}

// MeasureWindows returns the per-phase measurement windows of the plan's
// programs, in phase order with nondecreasing thresholds.
func (pl *Plan) MeasureWindows() []PhaseWindow {
	numPhases := 0
	if len(pl.progs) > 0 {
		numPhases = len(pl.progs[0].Phases)
	}
	out := make([]PhaseWindow, numPhases)
	cum := int64(0)
	for i := 0; i < numPhases; i++ {
		var detailed, total, warmMid int64
		sliceable := false
		cross := make([]int64, pl.m+1)
		for c := range pl.progs {
			wlo, lo, _, ehi := pl.window(c, i)
			detailed += ehi - wlo
			total += pl.progs[c].Phases[i].NumIters
			pp := pl.cores[c][i]
			if pp.cut != nil {
				sliceable = true
				warmMid += (lo - wlo) / 2
				for s := 0; s <= pl.m; s++ {
					cross[s] += pp.cut[pl.b+s] - wlo
				}
			}
		}
		w := PhaseWindow{Total: total, Detailed: detailed}
		if sliceable {
			w.WarmMid = uint64(cum + warmMid)
			w.Crossings = make([]uint64, pl.m+1)
			for s := range cross {
				w.Crossings[s] = uint64(cum + cross[s])
			}
		}
		out[i] = w
		cum += detailed
	}
	return out
}

// Programs returns the per-core programs of the detailed run: every source
// phase is sliced to its window [wlo, ehi) — warmup, measured block and
// epilogue run as ONE phase, with no barrier in between, so the cross-core
// desynchronization the warmup establishes carries into the measured block
// (a barrier would re-synchronize the cores into lockstep and replay the
// startup transient). Streams are rebased, entering their nest at the
// window's first iteration through Start, so the detailed machine (whose
// stream walkers always start at element 0) observes the window's exact
// address sequence, and sliced streams carry the original footprint as
// their float hint so the float policy decides as it would in the full run.
func (pl *Plan) Programs() []workload.Program {
	out := make([]workload.Program, len(pl.progs))
	for c := range pl.progs {
		src := pl.progs[c]
		phases := make([]workload.Phase, len(src.Phases))
		for i := range src.Phases {
			wlo, _, _, ehi := pl.window(c, i)
			phases[i] = slicePhase(&src.Phases[i], wlo, ehi)
		}
		out[c] = workload.Program{CoreID: src.CoreID, Phases: phases}
	}
	return out
}

func slicePhase(ph *workload.Phase, lo, hi int64) workload.Phase {
	if lo == 0 && hi == ph.NumIters {
		return *ph
	}
	if hi == lo {
		// An empty slice still participates in the phase barrier.
		return workload.Phase{Name: ph.Name, ComputeCycles: ph.ComputeCycles, InstrsPerIter: ph.InstrsPerIter}
	}
	out := *ph
	out.NumIters = hi - lo
	out.Loads = sliceDecls(ph.Loads, lo, hi)
	out.Stores = sliceDecls(ph.Stores, lo, hi)
	if orig := ph.SeqLoads; orig != nil {
		out.SeqLoads = func(i int64) []uint64 { return orig(lo + i) }
	}
	return out
}

func sliceDecls(ds []stream.Decl, lo, hi int64) []stream.Decl {
	if ds == nil {
		return nil
	}
	out := make([]stream.Decl, len(ds))
	for i, d := range ds {
		out[i] = d
		if d.Affine != nil && !d.UnknownLength {
			a := sliceAffine(*d.Affine, lo, hi)
			out[i].Affine = &a
			if out[i].FootprintHint == 0 {
				out[i].FootprintHint = d.Affine.FootprintBytes()
			}
		}
	}
	return out
}
