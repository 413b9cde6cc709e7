package experiments

import (
	"fmt"

	"streamfloat/internal/config"
)

// ablations sweeps the design choices DESIGN.md calls out, beyond what the
// paper itself evaluates: the SE_L2 stream-buffer capacity (run-ahead depth
// and stencil retention), the confluence block size (how far apart cores may
// be and still merge), and the history-policy float threshold. All results
// are SF-OOO8 cycles normalized to the default configuration.
func ablations(opts Options) (*Table, error) {
	type variant struct {
		label  string
		mutate func(*config.Config)
	}
	variants := []variant{
		{"default", nil},
		{"sel2-buffer-4kB", func(c *config.Config) { c.SEL2BufferBytes = 4 << 10 }},
		{"sel2-buffer-64kB", func(c *config.Config) { c.SEL2BufferBytes = 64 << 10 }},
		{"confluence-off", func(c *config.Config) { c.FloatConfluence = false }},
		{"confluence-block-4", func(c *config.Config) { c.ConfluenceBlock = 4 }},
		{"float-threshold-16", func(c *config.Config) { c.FloatMinRequests = 16 }},
		{"float-threshold-256", func(c *config.Config) { c.FloatMinRequests = 256 }},
		{"no-indirect", func(c *config.Config) { c.FloatIndirect = false }},
	}
	benches := opts.benchmarks()
	var keys []runKey
	for _, v := range variants {
		for _, b := range benches {
			keys = append(keys, runKey{bench: b, system: "SF", core: config.OOO8, mutate: v.mutate})
		}
	}
	res, err := runAll(opts.context(), opts, keys)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablations: SF design choices (cycles and traffic normalized to default SF-OOO8)",
		Header: []string{"variant", "cycles", "traffic", "floated", "fallbacks"},
	}
	for vi, v := range variants {
		var cyc, tra []float64
		var floated, fallbacks uint64
		for bi := range benches {
			def := res[bi].Stats
			cur := res[vi*len(benches)+bi].Stats
			cyc = append(cyc, float64(cur.Cycles)/float64(def.Cycles))
			dTot := float64(def.TotalFlitHops())
			if dTot == 0 {
				dTot = 1
			}
			tra = append(tra, float64(cur.TotalFlitHops())/dTot)
			floated += cur.StreamsFloated
			fallbacks += cur.StreamFallbacks
		}
		t.Rows = append(t.Rows, []string{
			v.label, flt3(geomean(cyc)), flt3(geomean(tra)),
			fmt.Sprint(floated), fmt.Sprint(fallbacks),
		})
		t.metric(v.label+"-cycles", geomean(cyc))
		t.metric(v.label+"-traffic", geomean(tra))
	}
	t.Notes = append(t.Notes,
		"a 4 kB SE_L2 buffer throttles run-ahead and stencil retention; tiny float thresholds float reused streams (more sinks/fallbacks)")
	return t, nil
}
