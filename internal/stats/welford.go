package stats

import "math"

// Welford is a streaming accumulator for the mean and variance of a series,
// using Welford's online algorithm. Unlike the naive sum/sum-of-squares
// formulation it stays numerically stable when the variance is tiny relative
// to the mean — the common case for sampled-simulation estimates, where
// per-interval cycle counts of a regular kernel differ by fractions of a
// percent. The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w, as if every observation added to o
// had been added to w. This is Chan et al.'s parallel variance update; it lets
// partial accumulators built concurrently (or per shard) combine exactly.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// N is the number of observations folded in so far.
func (w *Welford) N() int64 { return w.n }

// Mean is the arithmetic mean of the observations, or 0 when empty.
func (w *Welford) Mean() float64 { return w.mean }

// Variance is the unbiased (n-1 denominator) sample variance. It is 0 for
// fewer than two observations, where the sample variance is undefined.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 {
		return 0 // rounding can push m2 epsilon-negative for constant series
	}
	return v
}

// StdDev is the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr is the standard error of the mean, StdDev/sqrt(n), or 0 for fewer
// than two observations.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 is the half-width of the two-sided 95% confidence interval for the
// mean under the t distribution with n-1 degrees of freedom: the true mean
// lies in Mean() ± CI95() with 95% confidence, assuming the observations are
// an independent sample. It is 0 for fewer than two observations — with one
// interval there is no variance information, and callers should treat the
// estimate as a point value of unknown error.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return TInv975(w.n-1) * w.StdErr()
}

// tInv975 holds the 97.5th-percentile quantile of Student's t distribution
// for 1..30 degrees of freedom (the two-sided 95% critical values).
var tInv975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TInv975 returns the two-sided 95% critical value of Student's t
// distribution with df degrees of freedom. Beyond 30 degrees of freedom it
// returns the normal approximation 1.96; for df < 1 it returns the df=1
// value, the most conservative in the table.
func TInv975(df int64) float64 {
	if df < 1 {
		df = 1
	}
	if df > int64(len(tInv975)) {
		return 1.96
	}
	return tInv975[df-1]
}

// Estimate is a sampled point estimate with its 95% confidence half-width.
type Estimate struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	N         int64   `json:"n"` // measured intervals contributing
}

// Contains reports whether v falls inside the interval.
func (e Estimate) Contains(v float64) bool {
	return v >= e.Mean-e.HalfWidth && v <= e.Mean+e.HalfWidth
}

// RelHalfWidth is the half-width as a fraction of the mean (0 for a zero
// mean).
func (e Estimate) RelHalfWidth() float64 {
	if e.Mean == 0 {
		return 0
	}
	return e.HalfWidth / math.Abs(e.Mean)
}
