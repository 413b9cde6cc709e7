package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"time"

	"streamfloat/internal/experiments"
	"streamfloat/internal/system"
)

// summary is a median with its quartiles and sample count.
type summary struct {
	Value float64 `json:"value"` // median
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// summarize returns the median and quartiles of vs, cut the way Python's
// statistics.quantiles(vs, n=4) cuts them, so the harness and the pipeline
// agree on what a spread is. Fewer than two samples have no quartiles.
func summarize(vs []float64) summary {
	n := len(vs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return summary{Value: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Value: cut(2), Q1: cut(1), Q3: cut(3), N: n}
}

func median(vs []float64) float64 { return summarize(vs).Value }

// percentile is the nearest-rank q-quantile of vs (vs need not be sorted).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// resultJSON is the canonical encoding of one Results for digests and
// equality gates. Workers is an execution knob echoed in Results.Config and
// outside the cache key; it is zeroed so a workers=P run compares equal to
// its workers=1 reference exactly when every simulated statistic matches.
func resultJSON(r system.Results) []byte {
	r.Config.Workers = 0
	b, err := json.Marshal(r)
	if err != nil {
		panic("benchmark: encoding Results: " + err.Error())
	}
	return b
}

// statsDigest is the SHA-256 over the canonical JSON of every Results a pass
// produced (in cache-key order, so sweep scheduling cannot move it) followed
// by the figure table, if the pass produced one. It is not a metric: it is
// the check that a host-time change left every simulated statistic identical.
func statsDigest(results map[string]system.Results, table *experiments.Table) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(resultJSON(results[k]))
	}
	if table != nil {
		b, err := json.Marshal(table)
		if err != nil {
			panic("benchmark: encoding Table: " + err.Error())
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
