package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"streamfloat/internal/config"
	"streamfloat/internal/energy"
	"streamfloat/internal/stats"
	"streamfloat/internal/trace"
)

// setting is one entry of a figure's grid axis: a label for rows, metrics
// and per-point records, and what the entry fixes of a point.
type setting struct {
	label  string
	system string
	// core, when set, is the point's core; points no entry sets run on OOO8.
	core   *config.CoreKind
	mutate func(*config.Config)
}

// figure is one table of the report, declared as data: its text, the point
// grid it sweeps (outer axis × inner axis × benchmarks), and rows, which
// renders the computed grid into the table.
type figure struct {
	// name is the figure's id; a "figN" figure also answers to "N".
	name   string
	title  string
	header []string
	// notes follow the rows, verbatim: the paper's numbers to compare with.
	notes []string
	// minScale raises the sweep's dataset scale.
	minScale float64
	// outer × inner × benchmarks is the grid; an empty outer axis simulates
	// nothing.
	outer, inner []setting
	// traced points run under the tracer and carry its attribution.
	traced bool
	rows   func(t *Table, g *grid)
}

// grid is one figure's swept points, read by (outer, inner, bench) index.
type grid struct {
	outer, inner []setting
	benches      []string
	cells        []cell
}

// index is the sweep position of point (o, i, b): outer-major, benchmarks
// innermost. It is the one definition of a figure's point order
// (benchmark/layers.go mirrors Fig 13's).
func (g *grid) index(o, i, b int) int { return (o*len(g.inner)+i)*len(g.benches) + b }

func (g *grid) at(o, i, b int) *cell { return &g.cells[g.index(o, i, b)] }

// keys lists the grid's points in sweep order. A point takes what its outer
// entry sets, overridden by what its inner entry sets, and runs on OOO8
// unless an entry sets a core; a mutated point carries the mutating entry's
// label as its variant.
func (g *grid) keys(traced bool) []runKey {
	keys := make([]runKey, len(g.outer)*len(g.inner)*len(g.benches))
	for o, out := range g.outer {
		for i, in := range g.inner {
			for b, bench := range g.benches {
				k := runKey{bench: bench, core: config.OOO8, traced: traced, idx: g.index(o, i, b)}
				for _, s := range [2]setting{out, in} {
					if s.system != "" {
						k.system = s.system
					}
					if s.core != nil {
						k.core = *s.core
					}
					if s.mutate != nil {
						k.mutate, k.variant = s.mutate, s.label
					}
				}
				keys[k.idx] = k
			}
		}
	}
	return keys
}

// run regenerates the figure's table: it sweeps the grid, renders the rows
// and notes, and folds in the sampled-sweep confidence intervals, the
// keep-going failures and, when the per-simulation worker count forces a
// sweep-parallelism derate, a note saying so. ByName, All, AllTables and
// WriteFigureCSVs all reach a figure through here.
func (f *figure) run(opts Options) (*Table, error) {
	opts.figure = f.name
	opts.Scale = max(opts.Scale, f.minScale)
	if opts.Sample.Enabled() {
		opts.estimates = &pointLog[PointEstimate]{}
	}
	if opts.KeepGoing {
		opts.failures = &pointLog[PointFailure]{}
	}
	g := &grid{outer: f.outer, inner: f.inner, benches: opts.benchmarks()}
	var err error
	if g.cells, err = sweep(opts.context(), opts, g.keys(f.traced)); err != nil {
		return nil, err
	}
	t := &Table{Title: f.title, Header: f.header}
	f.rows(t, g)
	t.Notes = append(t.Notes, f.notes...)
	if pts := opts.estimates.sorted(); len(pts) > 0 {
		t.Sampling = newSamplingSummary(opts.Sample, pts)
		t.Notes = append(t.Notes, t.Sampling.note())
	}
	if pts := opts.failures.sorted(); len(pts) > 0 {
		t.Failures = pts
		for _, pf := range pts {
			t.Notes = append(t.Notes, pf.note())
		}
	}
	if n := opts.derateNote(); n != "" {
		t.Notes = append(t.Notes, n)
	}
	return t, nil
}

// systems is an axis over the named systems, labelled by name.
func systems(names ...string) []setting {
	axis := make([]setting, len(names))
	for i, n := range names {
		axis[i] = setting{label: n, system: n}
	}
	return axis
}

// cores is an axis over the given cores, labelled by core name.
func cores(kinds ...config.CoreKind) []setting {
	axis := make([]setting, len(kinds))
	for i := range kinds {
		axis[i] = setting{label: kinds[i].String(), core: &kinds[i]}
	}
	return axis
}

// noAxis is an axis of one entry that sets nothing.
var noAxis = []setting{{}}

var (
	evalCores   = cores(config.IO4, config.OOO4, config.OOO8)
	evalSystems = systems("Base", "Stride", "Bingo", "SS", "SF")
)

func bulkPrefetch(c *config.Config) { c.BulkPrefetch = true; c.L3InterleaveBytes = 1024 }

// figures is the report in presentation order: the paper's figures, the
// area table, the ablations beyond the paper, and the trace-derived latency
// appendix.
var figures = []*figure{
	{
		// The motivation numbers depend on per-core working sets exceeding
		// the private L2, so this figure enforces a minimum dataset scale
		// (use -scale 1 for the calibrated Table IV sizes).
		name:     "fig2",
		title:    "Fig 2: Overhead of Caching Data without Reuse (Base, OOO8)",
		header:   []string{"benchmark", "evict-clean-noreuse", "of-which-stream", "unreused-traffic", "unreused-ctrl"},
		notes:    []string{"paper: 72% of L2 evictions are clean+unreused, 63% stream-covered; unreused data causes 50% of traffic (20% control)"},
		minScale: 0.5,
		outer:    systems("Base"),
		inner:    noAxis,
		rows:     fig02,
	},
	{
		name:   "fig13",
		title:  "Fig 13: Overall Speedup and Energy Efficiency over Base",
		header: []string{"core", "system", "speedup(gm)", "energy-eff(gm)", "per-benchmark speedups"},
		notes: []string{
			"paper: SF speedup 3.20x (IO4) / 1.41x-rel (OOO4) / 1.39x (OOO8) incl. prefetcher baselines; SS-IO4 1.95x, BG-IO4 2.10x",
			"paper: SF beats SS by 64% (IO4), 37% (OOO4), 31% (OOO8)",
		},
		outer: evalCores,
		inner: evalSystems,
		rows:  fig13,
	},
	{
		name:   "fig14",
		title:  "Fig 14: Requests to L3 of SF-OOO8, by origin",
		header: []string{"benchmark", "core-normal", "core-stream", "float-affine", "float-indirect", "float-confluence", "floated-total"},
		notes:  []string{"paper: 68% of L3 requests are SE_L3-generated; 50% affine, 5% indirect; conv3d confluence ~51%"},
		outer:  systems("SF"),
		inner:  noAxis,
		rows:   fig14,
	},
	{
		name:   "fig15",
		title:  "Fig 15: OOO8 NoC traffic (flit-hops normalized to Base) and utilization",
		header: []string{"variant", "total", "ctrl-req+coh", "data", "stream-mgmt", "utilization"},
		notes:  []string{"paper: Bingo +34% traffic, bulk -6%, SF-Aff -30%, SF -36%; stream mgmt overhead ~2%; utilization 35% (Bingo) -> 25% (SF)"},
		outer: []setting{
			{label: "Base", system: "Base"},
			{label: "Stride", system: "Stride"},
			{label: "Stride+bulk", system: "Stride", mutate: bulkPrefetch},
			{label: "Bingo", system: "Bingo"},
			{label: "Bingo+bulk", system: "Bingo", mutate: bulkPrefetch},
			{label: "SS", system: "SS"},
			{label: "SF-Aff", system: "SF-Aff"},
			{label: "SF-Ind", system: "SF-Ind"},
			{label: "SF", system: "SF"},
		},
		inner: noAxis,
		rows:  fig15,
	},
	{
		name:   "fig16",
		title:  "Fig 16: SF vs Bingo with 128/256/512-bit links (normalized to Bingo-128)",
		header: []string{"link", "Bingo", "SF", "SF/Bingo"},
		notes:  []string{"paper: SF/Bingo grows from 1.34x at 128-bit to 1.43x at 512-bit"},
		outer: []setting{
			{label: "128-bit", mutate: func(c *config.Config) { c.LinkBits = 128 }},
			{label: "256-bit", mutate: func(c *config.Config) { c.LinkBits = 256 }},
			{label: "512-bit", mutate: func(c *config.Config) { c.LinkBits = 512 }},
		},
		inner: systems("Bingo", "SF"),
		rows:  fig16,
	},
	{
		name:   "fig17",
		title:  "Fig 17: NUCA interleaving granularity (normalized to Bingo-64B)",
		header: []string{"interleave", "Bingo", "SF", "SF stream-ctrl traffic"},
		notes:  []string{"paper: SF best at 1kB; Bingo-4kB 0.93x of Bingo-64B (hotspots); SF-64B pays 12% stream-control traffic yet still cuts total by 22%"},
		outer: []setting{
			{label: "64B", mutate: func(c *config.Config) { c.L3InterleaveBytes = 64 }},
			{label: "256B", mutate: func(c *config.Config) { c.L3InterleaveBytes = 256 }},
			{label: "1024B", mutate: func(c *config.Config) { c.L3InterleaveBytes = 1024 }},
			{label: "4096B", mutate: func(c *config.Config) { c.L3InterleaveBytes = 4096 }},
		},
		inner: systems("Bingo", "SF"),
		rows:  fig17,
	},
	{
		name:   "fig18",
		title:  "Fig 18: Core scaling - SF speedup over SS",
		header: []string{"mesh", "SF/SS (gm)", "SS L2 hit", "SS L3 hit"},
		notes:  []string{"paper: SF/SS 1.30x at 4x4 rising slightly to 1.32x at 8x8"},
		outer: []setting{
			{label: "4x4", mutate: func(c *config.Config) { c.MeshWidth, c.MeshHeight = 4, 4 }},
			{label: "4x8", mutate: func(c *config.Config) { c.MeshWidth, c.MeshHeight = 4, 8 }},
			{label: "8x8", mutate: func(c *config.Config) { c.MeshWidth, c.MeshHeight = 8, 8 }},
		},
		inner: systems("SS", "SF"),
		rows:  fig18,
	},
	{
		name:   "fig19",
		title:  "Fig 19: Energy vs Speedup (normalized to Base-IO4)",
		header: []string{"point", "speedup(gm)", "energy(gm)"},
		notes:  []string{"paper: SF-IO4 outperforms SS-OOO8 at much lower energy"},
		outer:  evalCores,
		inner:  evalSystems,
		rows:   fig19,
	},
	{
		name:   "area",
		title:  "Area overheads (22nm, per tile) - section VII-A",
		header: []string{"core", "SE_L3 cfg", "SE_L3 TLB", "L3 ovh", "SE_L2 buf", "L2 ovh", "chip ovh"},
		notes:  []string{"paper: SE_L3 48kB=0.11mm2 + 1k TLB=0.04mm2 (4.5% of L3); 9% of L2; chip 1.6% (IO4) / 1.4% (OOO8)"},
		rows:   areaTable,
	},
	{
		// The design choices DESIGN.md calls out, beyond what the paper
		// itself evaluates: the SE_L2 stream-buffer capacity (run-ahead depth
		// and stencil retention), the confluence block size (how far apart
		// cores may be and still merge), and the history-policy float
		// threshold.
		name:   "ablations",
		title:  "Ablations: SF design choices (cycles and traffic normalized to default SF-OOO8)",
		header: []string{"variant", "cycles", "traffic", "floated", "fallbacks"},
		notes:  []string{"a 4 kB SE_L2 buffer throttles run-ahead and stencil retention; tiny float thresholds float reused streams (more sinks/fallbacks)"},
		outer: []setting{
			{label: "default"},
			{label: "sel2-buffer-4kB", mutate: func(c *config.Config) { c.SEL2BufferBytes = 4 << 10 }},
			{label: "sel2-buffer-64kB", mutate: func(c *config.Config) { c.SEL2BufferBytes = 64 << 10 }},
			{label: "confluence-off", mutate: func(c *config.Config) { c.FloatConfluence = false }},
			{label: "confluence-block-4", mutate: func(c *config.Config) { c.ConfluenceBlock = 4 }},
			{label: "float-threshold-16", mutate: func(c *config.Config) { c.FloatMinRequests = 16 }},
			{label: "float-threshold-256", mutate: func(c *config.Config) { c.FloatMinRequests = 256 }},
			{label: "no-indirect", mutate: func(c *config.Config) { c.FloatIndirect = false }},
		},
		inner: systems("SF"),
		rows:  ablations,
	},
	{
		// The tabular face of the trace subsystem; `sftrace summarize`
		// renders the same breakdown for a single exported run.
		name:  "latency",
		title: "Load latency attribution (OOO8): where demand-load cycles go",
		header: []string{"benchmark", "system", "loads", "avg-lat",
			"core-wait", "l1", "l2", "noc", "l3", "dram"},
		notes: []string{
			"shares are fractions of total demand-load wait cycles; dram includes the memory-controller NoC legs",
			"loads merged into an in-flight miss charge their post-L2 wait to noc (documented approximation)",
		},
		outer:  systems("Base", "SF"),
		inner:  noAxis,
		traced: true,
		rows:   latencyBreakdown,
	},
}

// ByName returns the runner for a figure id ("2", "13", ... "19", "fig13",
// "area", "ablations", or "latency").
func ByName(id string) (func(Options) (*Table, error), bool) {
	for _, f := range figures {
		if f.name == id || f.name == "fig"+id {
			return f.run, true
		}
	}
	return nil, false
}

// Names lists the figure ids All, AllTables and WriteFigureCSVs emit, in
// order.
func Names() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// each regenerates figs in order, handing every table to emit as soon as it
// is done.
func each(figs []*figure, opts Options, emit func(name string, t *Table) error) error {
	for _, f := range figs {
		t, err := f.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if err := emit(f.name, t); err != nil {
			return err
		}
	}
	return nil
}

// All runs every figure in order, writing each rendered table to w as it
// finishes.
func All(opts Options, w io.Writer) error {
	return each(figures, opts, func(_ string, t *Table) error {
		t.Fprint(w)
		return nil
	})
}

// WriteFigureCSVs regenerates every figure and writes one CSV per figure
// into dir (created if missing), named <figure>.csv. This is the `-fig all
// -csv -out dir/` path of sfexp.
func WriteFigureCSVs(opts Options, dir string) error {
	return writeCSVs(figures, opts, dir)
}

func writeCSVs(figs []*figure, opts Options, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return each(figs, opts, func(name string, t *Table) error {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		return f.Close()
	})
}

// fig02 reproduces the cache-thrashing motivation: the fraction of L2
// evictions that are clean and never reused (and the stream-covered share),
// and the fraction of NoC traffic attributable to caching unreused data.
func fig02(t *Table, g *grid) {
	var fracs, streams, traffic []float64
	for b, bench := range g.benches {
		s := &g.at(0, 0, b).Stats
		evict := float64(s.L2Evictions)
		if evict == 0 {
			evict = 1
		}
		noReuse := float64(s.L2EvictCleanNoReuse) / evict
		streamShare := float64(s.L2EvictCleanNoReuseStream) / evict
		total := float64(s.TotalFlitHops())
		if total == 0 {
			total = 1
		}
		un := float64(s.UnreusedDataFlitHops+s.UnreusedCtrlFlitHops) / total
		unCtrl := float64(s.UnreusedCtrlFlitHops) / total
		fracs = append(fracs, noReuse)
		streams = append(streams, streamShare)
		traffic = append(traffic, un)
		t.Rows = append(t.Rows, []string{bench, pct(noReuse), pct(streamShare), pct(un), pct(unCtrl)})
	}
	t.Rows = append(t.Rows, []string{"mean", pct(mean(fracs)), pct(mean(streams)), pct(mean(traffic)), ""})
	t.metric("evict-clean-noreuse", mean(fracs))
	t.metric("stream-covered", mean(streams))
	t.metric("unreused-traffic", mean(traffic))
}

// fig13 reproduces the headline comparison: speedup and energy efficiency
// of Stride/Bingo/SS/SF over Base, for IO4, OOO4 and OOO8 cores.
func fig13(t *Table, g *grid) {
	for ci, core := range g.outer {
		for si, sys := range g.inner {
			if sys.label == "Base" {
				continue
			}
			var sp, ee []float64
			var per []string
			for bi, bench := range g.benches {
				base := &g.at(ci, 0, bi).Stats
				cur := &g.at(ci, si, bi).Stats
				s := float64(base.Cycles) / float64(cur.Cycles)
				e := base.EnergyJ / cur.EnergyJ
				sp = append(sp, s)
				ee = append(ee, e)
				per = append(per, fmt.Sprintf("%s=%.2f", bench, s))
			}
			t.Rows = append(t.Rows, []string{
				core.label, sys.label, rat(geomean(sp)), rat(geomean(ee)), strings.Join(per, " "),
			})
			t.metric(sys.label+"-"+core.label+"-speedup", geomean(sp))
			t.metric(sys.label+"-"+core.label+"-energy-eff", geomean(ee))
		}
	}
}

// fig14 breaks L3 requests down by origin for SF on OOO8.
func fig14(t *Table, g *grid) {
	var floatedShare []float64
	for b, bench := range g.benches {
		s := &g.at(0, 0, b).Stats
		tot := float64(s.TotalL3Requests())
		if tot == 0 {
			tot = 1
		}
		f := func(k stats.L3ReqKind) float64 { return float64(s.L3Requests[k]) / tot }
		floated := f(stats.L3FloatAffine) + f(stats.L3FloatIndirect) + f(stats.L3FloatConfluence)
		floatedShare = append(floatedShare, floated)
		t.Rows = append(t.Rows, []string{
			bench,
			pct(f(stats.L3CoreNormal)), pct(f(stats.L3CoreStream)),
			pct(f(stats.L3FloatAffine)), pct(f(stats.L3FloatIndirect)),
			pct(f(stats.L3FloatConfluence)), pct(floated),
		})
	}
	t.Rows = append(t.Rows, []string{"mean", "", "", "", "", "", pct(mean(floatedShare))})
	t.metric("floated-share", mean(floatedShare))
}

// fig15 reports NoC flit-hops by message class, normalized to Base, plus
// average network utilization, across the prefetchers (with and without
// bulk), SS, and the SF ablations.
func fig15(t *Table, g *grid) {
	for v, variant := range g.outer {
		var tot, ctrl, data, mgmt, util []float64
		for b := range g.benches {
			base := &g.at(0, 0, b).Stats
			r := g.at(v, 0, b)
			cur := &r.Stats
			bTot := float64(base.TotalFlitHops())
			if bTot == 0 {
				bTot = 1
			}
			tot = append(tot, float64(cur.TotalFlitHops())/bTot)
			ctrl = append(ctrl, float64(cur.FlitHops[stats.ClassCtrlReq]+cur.FlitHops[stats.ClassCtrlCoh])/bTot)
			data = append(data, float64(cur.FlitHops[stats.ClassData])/bTot)
			mgmt = append(mgmt, float64(cur.FlitHops[stats.ClassStream])/bTot)
			util = append(util, cur.NoCUtilization(r.NumLinks))
		}
		t.Rows = append(t.Rows, []string{
			variant.label, flt3(mean(tot)), flt3(mean(ctrl)), flt3(mean(data)), flt3(mean(mgmt)), pct(mean(util)),
		})
		t.metric(variant.label+"-traffic", mean(tot))
		t.metric(variant.label+"-utilization", mean(util))
	}
}

// fig16 compares SF and Bingo at 128/256/512-bit links, normalized to
// Bingo with 128-bit links.
func fig16(t *Table, g *grid) {
	for w, width := range g.outer {
		var bg, sf []float64
		for b := range g.benches {
			ref := float64(g.at(0, 0, b).Stats.Cycles)
			bg = append(bg, ref/float64(g.at(w, 0, b).Stats.Cycles))
			sf = append(sf, ref/float64(g.at(w, 1, b).Stats.Cycles))
		}
		gBg, gSf := geomean(bg), geomean(sf)
		t.Rows = append(t.Rows, []string{width.label, rat(gBg), rat(gSf), rat(gSf / gBg)})
		t.metric("SF-over-Bingo-"+strings.Replace(width.label, "-", "", 1), gSf/gBg)
	}
}

// fig17 sweeps the static-NUCA interleaving granularity for Bingo and SF,
// normalized to Bingo-64B.
func fig17(t *Table, g *grid) {
	for i, grain := range g.outer {
		var bg, sf, mgmt []float64
		for b := range g.benches {
			ref := float64(g.at(0, 0, b).Stats.Cycles)
			bg = append(bg, ref/float64(g.at(i, 0, b).Stats.Cycles))
			sfs := &g.at(i, 1, b).Stats
			sf = append(sf, ref/float64(sfs.Cycles))
			tot := float64(sfs.TotalFlitHops())
			if tot == 0 {
				tot = 1
			}
			mgmt = append(mgmt, float64(sfs.FlitHops[stats.ClassStream])/tot)
		}
		t.Rows = append(t.Rows, []string{
			grain.label, rat(geomean(bg)), rat(geomean(sf)), pct(mean(mgmt)),
		})
		t.metric("SF-"+grain.label, geomean(sf))
		t.metric("Bingo-"+grain.label, geomean(bg))
	}
}

// fig18 scales the mesh (4x4, 4x8, 8x8) and reports SF's speedup over SS
// plus SS's private/shared hit rates.
func fig18(t *Table, g *grid) {
	for m, mesh := range g.outer {
		var sp, l2hit, l3hit []float64
		for b := range g.benches {
			ss := &g.at(m, 0, b).Stats
			sf := &g.at(m, 1, b).Stats
			sp = append(sp, float64(ss.Cycles)/float64(sf.Cycles))
			if acc := ss.L2Hits + ss.L2Misses; acc > 0 {
				l2hit = append(l2hit, float64(ss.L2Hits)/float64(acc))
			}
			if acc := ss.L3Hits + ss.L3Misses; acc > 0 {
				l3hit = append(l3hit, float64(ss.L3Hits)/float64(acc))
			}
		}
		t.Rows = append(t.Rows, []string{
			mesh.label, rat(geomean(sp)), pct(mean(l2hit)), pct(mean(l3hit)),
		})
		t.metric("SF-over-SS-"+mesh.label, geomean(sp))
	}
}

// fig19 produces the energy-vs-speedup scatter: one point per (core,
// system), both axes normalized to Base-IO4.
func fig19(t *Table, g *grid) {
	type pt struct {
		label  string
		sp, en float64
	}
	var pts []pt
	for c, core := range g.outer {
		for s, sys := range g.inner {
			var sp, en []float64
			for b := range g.benches {
				ref := &g.at(0, 0, b).Stats
				cur := &g.at(c, s, b).Stats
				sp = append(sp, float64(ref.Cycles)/float64(cur.Cycles))
				en = append(en, cur.EnergyJ/ref.EnergyJ)
			}
			pts = append(pts, pt{sys.label + "-" + core.label, geomean(sp), geomean(en)})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].sp < pts[j].sp })
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.label, rat(p.sp), flt3(p.en)})
		t.metric(p.label+"-speedup", p.sp)
		t.metric(p.label+"-energy", p.en)
	}
}

// areaTable reproduces the §VII-A area-overhead numbers from the area model;
// it simulates nothing.
func areaTable(t *Table, _ *grid) {
	for _, core := range []config.CoreKind{config.IO4, config.OOO8} {
		cfg := config.Default()
		cfg.Core = core
		a := energy.Area(cfg)
		t.Rows = append(t.Rows, []string{
			core.String(),
			fmt.Sprintf("%.2fmm2", a.SEL3ConfigMM2),
			fmt.Sprintf("%.2fmm2", a.SEL3TLBMM2),
			pct(a.L3OverheadPct / 100),
			fmt.Sprintf("%.2fmm2", a.SEL2BufferMM2),
			pct(a.L2OverheadPct / 100),
			pct(a.ChipOverheadPct / 100),
		})
	}
}

// ablations reports SF-OOO8 cycles and traffic under each design-choice
// variant, normalized to the default configuration.
func ablations(t *Table, g *grid) {
	for v, variant := range g.outer {
		var cyc, tra []float64
		var floated, fallbacks uint64
		for b := range g.benches {
			def := &g.at(0, 0, b).Stats
			cur := &g.at(v, 0, b).Stats
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
			variant.label, flt3(geomean(cyc)), flt3(geomean(tra)),
			fmt.Sprint(floated), fmt.Sprint(fallbacks),
		})
		t.metric(variant.label+"-cycles", geomean(cyc))
		t.metric(variant.label+"-traffic", geomean(tra))
	}
}

// latencyBreakdown renders the per-load latency attribution: where
// demand-load cycles go (core wait, L1, L2, NoC, L3, DRAM) for Base and SF
// on OOO8, from the tracer's per-load probes.
func latencyBreakdown(t *Table, g *grid) {
	for b, bench := range g.benches {
		for s, sys := range g.outer {
			a := &g.at(s, 0, b).attr
			total := float64(a.TotalCycles)
			if total == 0 {
				total = 1
			}
			avg := 0.0
			if a.Loads > 0 {
				avg = float64(a.TotalCycles) / float64(a.Loads)
			}
			row := []string{bench, sys.label, fmt.Sprintf("%d", a.Loads), fmt.Sprintf("%.1f", avg)}
			for bk := trace.Bucket(0); bk < trace.NumBuckets; bk++ {
				share := float64(a.Cycles[bk]) / total
				row = append(row, pct(share))
				t.metric(fmt.Sprintf("%s-%s-%s", sys.label, bench, bk), share)
			}
			t.Rows = append(t.Rows, row)
			t.metric(fmt.Sprintf("%s-%s-avg-latency", sys.label, bench), avg)
		}
	}
}
