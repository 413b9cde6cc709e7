package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"streamfloat/internal/config"
)

// metricValue is one reported metric: the median over the run's passes (or
// set-ups), with quartiles and sample count where there is more than one
// sample.
type metricValue struct {
	summary
	Unit string `json:"unit"`
}

// report is everything one run measured. The last line of standard output is
// the contract's four-key object; the report is the full record -compare and
// stability.sh read.
type report struct {
	Workload         string   `json:"workload"`
	Traced           bool     `json:"traced"`
	Host             hostInfo `json:"host"`
	Parallelism      int      `json:"parallelism"`
	Workers          int      `json:"workers"`
	EffectiveWorkers int      `json:"effective_workers"`
	Seconds          float64  `json:"seconds"`
	Sizes            string   `json:"sizes"`

	Correct     bool     `json:"correct"`
	Problems    []string `json:"problems,omitempty"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedFrac  float64  `json:"failed_frac"`
	StatsDigest string   `json:"stats_digest"`
	Passes      int      `json:"passes"`

	Metrics map[string]metricValue `json:"metrics"`

	// Traced runs only.
	SelfTimeMS map[string]float64 `json:"self_time_ms_per_pass,omitempty"`
	Ladder     []rung             `json:"ladder,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	env      env
	seconds  float64 // measure for at least this long
	traceOut string

	setups    int // set-ups of an untraced run; setup_s is their median
	minPasses int // timed passes of an untraced run, however long they take
	minPairs  int // untraced/traced pass pairs of a traced run
}

// defaultRepeats fills in the repeat counts every benchmark run uses; the
// smoke test runs each workload once.
func (rc runConfig) defaultRepeats() runConfig {
	rc.setups, rc.minPasses, rc.minPairs = 3, 3, 2
	return rc
}

// simWorkers is the per-simulation worker count a workload runs with.
func simWorkers(workload string, p int) int {
	if workload == "one-sim-workers" {
		return p
	}
	return 1
}

func newReport(rc runConfig) *report {
	workers := simWorkers(rc.workload, rc.env.p)
	return &report{
		Workload:         rc.workload,
		Traced:           rc.env.traced,
		Host:             newHostInfo(rc.env.p, rc.env.seed),
		Parallelism:      rc.env.p,
		Workers:          workers,
		EffectiveWorkers: effectiveWorkers(workers, config.Default().Tiles()),
		Seconds:          rc.seconds,
		Sizes:            fmt.Sprintf("%+v", rc.env.sizes),
		Correct:          true,
		Metrics:          map[string]metricValue{},
	}
}

// gate checks one pass against the reference and counts its operations.
func (r *report) gate(w workload, pr passResult) {
	r.Passes++
	r.Attempted += pr.attempted
	r.Failed += pr.failed
	if r.StatsDigest == "" {
		r.StatsDigest = w.reference()
	}
	if pr.digest != r.StatsDigest {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf("pass %d: stats digest %.16s differs from the reference %.16s", r.Passes, pr.digest, r.StatsDigest))
	}
}

func (r *report) finish() {
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
}

// runUntraced measures the end-to-end metrics: several set-ups (the last one
// stays up), then timed passes for at least rc.seconds.
func runUntraced(ctx context.Context, rc runConfig) (*report, error) {
	rep := newReport(rc)
	var w workload
	var setups []float64
	for i := 0; i < rc.setups; i++ {
		if w != nil {
			w.teardown()
		}
		var err error
		if w, err = newWorkload(rc.workload, rc.env); err != nil {
			return nil, err
		}
		runtime.GC()
		begin := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer w.teardown()

	var wall, mips, rate, p50, rss []float64
	for begin := time.Now(); rep.Passes < rc.minPasses || time.Since(begin).Seconds() < rc.seconds; {
		// Every set-up and pass starts from a collected heap, so the garbage
		// of one does not decide when the collector runs in the next.
		runtime.GC()
		perPass := resetPeakRSS()
		pr, err := w.pass(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", rep.Passes+1, err)
		}
		if perPass {
			rss = append(rss, peakRSSMB())
		}
		rep.gate(w, pr)
		s := pr.wall.Seconds()
		wall = append(wall, s)
		mips = append(mips, float64(pr.instr)/1e6/s)
		rate = append(rate, float64(len(pr.lat))/s)
		p50 = append(p50, median(durationsMS(pr.lat)))
	}
	rep.finish()
	set := func(name string, s summary) {
		spec, _ := findSpec(endToEnd, name)
		rep.Metrics[name] = metricValue{summary: s, Unit: spec.Unit}
	}
	set("wall_s", summarize(wall))
	set("sim_mips", summarize(mips))
	set("req_per_s", summarize(rate))
	set("req_p50_ms", summarize(p50))
	set("setup_s", summarize(setups))
	if len(rss) == 0 {
		// The kernel refused to restart the high-water mark: fall back to
		// the whole process's peak, set-ups included.
		rss = []float64{peakRSSMB()}
	}
	set("peak_rss_mb", summarize(rss))
	return rep, nil
}

// deriver is a workload with a per-layer metric that needs one more baseline
// run, given the median wall of the untraced passes.
type deriver interface {
	derived(ctx context.Context, passWall float64) (name string, value float64, err error)
}

// selfTimeMetric names the per-layer metric each span's self time is
// reported under.
var selfTimeMetric = map[string]string{
	spanSweep:   "experiments.sweep_self_ms",
	spanPoint:   "experiments.point_self_ms",
	spanCacheDo: "experiments.cache_do_self_ms",
	spanCompute: "experiments.compute_self_ms",
	spanHTTP:    "cluster.http_request_self_ms",
	spanDecode:  "cluster.decode_self_ms",
	spanHandle:  "serve.handle_self_ms",
}

// runTraced measures the per-layer metrics: one set-up, then pairs of an
// untraced and a traced pass for at least rc.seconds (their difference is the
// tracing overhead), the micro-rungs, and, where the workload simulates
// locally, the harness-driven system pass.
func runTraced(ctx context.Context, rc runConfig) (*report, error) {
	rep := newReport(rc)
	w, err := newWorkload(rc.workload, rc.env)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	rec := newRecorder()
	layer := map[string]float64{} // sums over traced passes, divided below
	self := map[string]time.Duration{}
	var plain, traced []float64
	var lastTrace string
	count := map[string]int{} // spans of the traced passes, by name
	total := map[string]time.Duration{}
	for begin := time.Now(); len(traced) < rc.minPairs || time.Since(begin).Seconds() < rc.seconds; {
		runtime.GC()
		pr, err := w.pass(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		rep.gate(w, pr)
		plain = append(plain, pr.wall.Seconds())

		lastTrace = fmt.Sprintf("%s/pass-%d", rc.workload, len(traced)+1)
		rec.setTrace(lastTrace)
		runtime.GC()
		if pr, err = w.pass(ctx, rec); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		rep.gate(w, pr)
		traced = append(traced, pr.wall.Seconds())
		for k, v := range pr.layer {
			layer[k] += v
		}
		spans := rec.pass(lastTrace)
		for name, d := range selfTimes(spans) {
			self[name] += d
		}
		for _, sp := range spans {
			count[sp.Name]++
			total[sp.Name] += sp.End - sp.Start
		}
	}
	rep.finish()
	passes := float64(len(traced))
	for k := range layer {
		layer[k] /= passes
	}
	rep.SelfTimeMS = map[string]float64{}
	for name, d := range self {
		rep.SelfTimeMS[name] = ms(d) / passes
	}
	for name, metric := range selfTimeMetric {
		layer[metric] = rep.SelfTimeMS[name]
	}
	layer["experiments.compute_spans"] = float64(count[spanCompute]) / passes
	if total[spanPoint] > 0 {
		layer["experiments.compute_point_frac"] = float64(total[spanCompute]) / float64(total[spanPoint])
		// How much of P cores the fan-out kept computing.
		var tracedWall float64
		for _, s := range traced {
			tracedWall += s
		}
		layer["experiments.fanout_efficiency"] = total[spanCompute].Seconds() / (tracedWall * float64(rc.env.p))
	}
	if count[spanPoint] > 0 && count[spanHTTP] > 0 {
		// What a remote point costs outside the backends' handlers (ring
		// lookup, JSON ship, transport, decode): the client-side self time.
		// Base: the serve.handle spans, which the self times exclude.
		client := self[spanCacheDo] + self[spanHTTP] + self[spanDecode]
		layer["cluster.client_overhead_ms_per_point"] = ms(client) / float64(count[spanPoint])
	}
	if layer["sample.work_reduction"] > 0 && count[spanCompute] > 0 {
		layer["sample.ms_per_point"] = ms(total[spanCompute]) / float64(count[spanCompute])
	}
	base := median(plain)
	layer["harness.trace_overhead_frac"] = (median(traced) - base) / base
	if d, ok := w.(deriver); ok {
		name, v, err := d.derived(ctx, base)
		if err != nil {
			return nil, err
		}
		layer[name] = v
	}

	if rep.Ladder, err = ladder(ctx, rc.env, false); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range layerFromLadder(rep.Ladder, rc.env.p) {
		layer[k] = v
	}

	fileSpans := rec.pass(lastTrace)
	if d, ok := w.(driver); ok {
		pts, want, err := d.drivePoints()
		if err != nil {
			return nil, err
		}
		if len(pts) > 0 {
			trace := rc.workload + "/system"
			rec.setTrace(trace)
			runtime.GC()
			vals, err := driveSystem(ctx, pts, want, rec)
			if err != nil {
				rep.Correct = false
				rep.Problems = append(rep.Problems, err.Error())
			}
			for k, v := range vals {
				layer[k] = v
			}
			fileSpans = append(fileSpans, rec.pass(trace)...)
		}
	}

	for name := range layer {
		if _, ok := findSpec(perLayer, name); !ok {
			return nil, fmt.Errorf("per-layer metric %q is not in the spec", name)
		}
	}
	for _, spec := range perLayer {
		v := layer[spec.Name]
		rep.Metrics[spec.Name] = metricValue{summary: summary{Value: v, Q1: v, Q3: v, N: 1}, Unit: spec.Unit}
	}
	if err := writeChromeTrace(rc.traceOut, fileSpans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.TraceFile = rc.traceOut
	return rep, nil
}
