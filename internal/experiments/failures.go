package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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

// pointLog collects one record per sweep point — a sampled estimate or a
// keep-going failure — from the sweep's concurrent workers. The zero value
// is ready; a nil log discards records, so the sweep path never branches on
// it.
type pointLog[T any] struct {
	mu   sync.Mutex
	recs []pointRecord[T]
}

type pointRecord[T any] struct {
	k runKey
	v T
}

func (l *pointLog[T]) record(k runKey, v T) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, pointRecord[T]{k, v})
}

// sorted returns the records ordered by (bench, system, core, variant,
// grid index), so the order is independent of sweep parallelism.
func (l *pointLog[T]) sorted() []T {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	recs := slices.Clone(l.recs)
	l.mu.Unlock()
	slices.SortFunc(recs, func(a, b pointRecord[T]) int {
		return cmp.Or(
			cmp.Compare(a.k.bench, b.k.bench),
			cmp.Compare(a.k.system, b.k.system),
			cmp.Compare(a.k.core.String(), b.k.core.String()),
			cmp.Compare(a.k.variant, b.k.variant),
			cmp.Compare(a.k.idx, b.k.idx))
	})
	out := make([]T, len(recs))
	for i, r := range recs {
		out[i] = r.v
	}
	return out
}
