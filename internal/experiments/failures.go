package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"streamfloat/internal/fault"
)

// PointFailure is one failed sweep point, as marked in tables, CSV/JSON
// output, and keep-going footnotes.
type PointFailure struct {
	Bench  string `json:"bench"`
	System string `json:"system"`
	Core   string `json:"core"`
	// Variant is the label of a mutated point's axis entry ("Stride+bulk",
	// "256-bit", ...), which tells apart points sharing bench/system/core.
	Variant string `json:"variant,omitempty"`
	// Key is the point's canonical cache key, when known.
	Key string `json:"key,omitempty"`
	// Kind classifies the failure (see fault.Kind).
	Kind fault.Kind `json:"kind"`
	Msg  string     `json:"msg"`
	// Stuck marks a stall-watchdog kill; Quarantined marks a failure replayed
	// from a quarantine negative entry rather than re-executed.
	Stuck       bool `json:"stuck,omitempty"`
	Quarantined bool `json:"quarantined,omitempty"`
}

// note renders the table footnote for one failed point.
func (f PointFailure) note() string {
	label := fmt.Sprintf("%s/%s/%s", f.Bench, f.System, f.Core)
	if f.Variant != "" {
		label += "(" + f.Variant + ")"
	}
	suffix := ""
	if f.Quarantined {
		suffix = " [quarantined]"
	}
	if f.Stuck {
		suffix += " [stuck]"
	}
	return fmt.Sprintf("FAILED %s: %s%s: %s", label, f.Kind, suffix, f.Msg)
}

// newPointFailure classifies one failed point through the fault taxonomy.
func newPointFailure(k runKey, err error) PointFailure {
	pe := fault.Classify("", err)
	return PointFailure{
		Bench:       k.bench,
		System:      k.system,
		Core:        k.core.String(),
		Variant:     k.variant,
		Key:         pe.Key,
		Kind:        pe.Kind,
		Msg:         pe.Msg,
		Stuck:       pe.Stuck,
		Quarantined: pe.Quarantined,
	}
}

// records folds a swept grid into its per-point records: the sampled
// estimate of every point that carries one (Table.Sampling) and the failure
// of every point that failed (Table.Failures), each ordered by (bench,
// system, core, variant, sweep position) so the order is independent of
// sweep parallelism.
func records(keys []runKey, cells []cell) (ests []PointEstimate, fails []PointFailure) {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ka, kb := keys[a], keys[b]
		return cmp.Or(
			cmp.Compare(ka.bench, kb.bench),
			cmp.Compare(ka.system, kb.system),
			cmp.Compare(ka.core.String(), kb.core.String()),
			cmp.Compare(ka.variant, kb.variant),
			cmp.Compare(a, b))
	})
	for _, i := range order {
		switch c := cells[i]; {
		case c.err != nil:
			fails = append(fails, newPointFailure(keys[i], c.err))
		case c.Sampled != nil:
			ests = append(ests, newPointEstimate(keys[i], c.Sampled))
		}
	}
	return ests, fails
}
