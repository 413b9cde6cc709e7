package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"streamfloat/internal/system"
)

// testSizes keeps every workload's shape at a fraction of its size: the
// fastest benchmark of the suite for the sweep set, a short nn run, and a
// serve-hit store that still overflows its LRU.
var testSizes = sizes{
	sweepBenches: []string{"nw"}, sweepScale: 0.02,
	simScale:  0.02,
	hitPoints: 48, hitLRU: 8, hitBatch: 128,
}

func testConfig(t *testing.T, workload string, traced bool) runConfig {
	t.Helper()
	dir := t.TempDir()
	return runConfig{
		workload: workload,
		env:      env{p: 2, seed: 7, sizes: testSizes, scratch: dir, traced: traced},
		traceOut: filepath.Join(dir, "trace.json"),
		setups:   1, minPasses: 1, minPairs: 1,
	}
}

func metricNames(specs []metricSpec) []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

func sameNames(t *testing.T, what string, got map[string]metricValue, specs []metricSpec) {
	t.Helper()
	for _, name := range metricNames(specs) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: metric %q is in the spec but was not emitted", what, name)
		}
	}
	for name := range got {
		if _, ok := findSpec(specs, name); !ok {
			t.Errorf("%s: emitted metric %q is not in the spec", what, name)
		}
	}
}

// TestSpecMatchesBenchmarkJSON holds the harness's tables and BENCHMARK.json
// to each other, in both directions, and BENCHMARK.json to the driver's
// contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", doc.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %+v", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s")
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %+v", m)
		}
	}
}

// TestWorkloadsSmoke runs every workload once, end to end, inside a test
// binary, where the sanitizer's "auto" resolves to on: the cluster == local
// and job == local gates only hold because every path pins it off.
func TestWorkloadsSmoke(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := runUntraced(context.Background(), testConfig(t, spec.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct %v, failed %d of %d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			sameNames(t, spec.Name, rep.Metrics, endToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRuns checks that each traced workload lights up its own layers
// and only those.
func TestTracedRuns(t *testing.T) {
	traced := func(t *testing.T, workload string) map[string]float64 {
		t.Helper()
		rc := testConfig(t, workload, true)
		rep, err := runTraced(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Fatalf("correct %v, failed %d: %v", rep.Correct, rep.Failed, rep.Problems)
		}
		sameNames(t, workload, rep.Metrics, perLayer)
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		data, err := os.ReadFile(rc.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("trace file: %d events, %v", len(doc.TraceEvents), err)
		}
		vals := map[string]float64{}
		for name, m := range rep.Metrics {
			vals[name] = m.Value
		}
		return vals
	}

	t.Run("fig13-cold", func(t *testing.T) {
		v := traced(t, "fig13-cold")
		if v["experiments.compute_point_frac"] < 0.9 {
			t.Errorf("compute holds %.3f of point time, want >= 0.9", v["experiments.compute_point_frac"])
		}
		if v["experiments.compute_spans"] != 15 || v["system.run_ms_per_point"] <= 0 || v["event.events_per_s"] <= 0 {
			t.Errorf("compute spans %v, system.run %v ms, %v events/s", v["experiments.compute_spans"], v["system.run_ms_per_point"], v["event.events_per_s"])
		}
		if v["serve.handle_self_ms"] != 0 || v["cluster.http_request_self_ms"] != 0 {
			t.Error("a local sweep recorded service spans")
		}
		for _, name := range []string{"event.ns_per_event", "par.ns_per_quantum.w1", "par.ns_per_quantum.wP", "serve.store_hit_mem_ns",
			"serve.store_hit_disk_us", "serve.store_put_us", "serve.store_singleflight_us", "serve.journal_append_us", "serve.encode_us_per_resp"} {
			if v[name] <= 0 {
				t.Errorf("rung %s = %v", name, v[name])
			}
		}
	})
	t.Run("serve-hit", func(t *testing.T) {
		v := traced(t, "serve-hit")
		if v["experiments.compute_spans"] != 0 {
			t.Errorf("%v compute spans on a cache-hit workload", v["experiments.compute_spans"])
		}
		if v["serve.handle_self_ms"] <= 0 || v["cluster.http_request_self_ms"] <= 0 || v["cluster.decode_self_ms"] <= 0 {
			t.Error("request spans missing")
		}
		if f := v["serve.mem_hit_frac"]; f <= 0 || f >= 1 {
			t.Errorf("memory hit share %v: both the memory and the disk read path must run", f)
		}
	})
	t.Run("cluster-cold", func(t *testing.T) {
		v := traced(t, "cluster-cold")
		if v["experiments.compute_spans"] < 15 || v["serve.handle_self_ms"] <= 0 || v["cluster.client_overhead_ms_per_point"] <= 0 {
			t.Errorf("compute spans %v, serve.handle %v ms, client overhead %v ms", v["experiments.compute_spans"], v["serve.handle_self_ms"], v["cluster.client_overhead_ms_per_point"])
		}
		if s := v["cluster.max_backend_share"]; s <= 0 || s >= 1 {
			t.Errorf("max backend share %v: the ring must spread points", s)
		}
	})
}

// fixedWorkload is a workload with a canned pass.
type fixedWorkload struct {
	ref string
	pr  passResult
}

func (w fixedWorkload) setup(context.Context) error                         { return nil }
func (w fixedWorkload) pass(context.Context, *recorder) (passResult, error) { return w.pr, nil }
func (w fixedWorkload) reference() string                                   { return w.ref }
func (w fixedWorkload) teardown()                                           {}

// TestPerturbedResultTripsDigestGate flips one simulated counter of one point.
func TestPerturbedResultTripsDigestGate(t *testing.T) {
	rc := testConfig(t, "fig13-cold", false)
	plan := sweepPlan{benches: testSizes.sweepBenches, scale: testSizes.sweepScale, parallelism: 2}
	o, err := plan.run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := o.digest()
	rep := newReport(rc)
	rep.gate(fixedWorkload{ref: ref}, sweepPass(o))
	if !rep.Correct {
		t.Fatal("an unperturbed pass failed the gate")
	}
	for k, r := range o.results {
		r.Stats.L3Hits++
		o.results[k] = r
		break
	}
	rep.gate(fixedWorkload{ref: ref}, sweepPass(o))
	if rep.Correct || len(rep.Problems) != 1 {
		t.Fatalf("a perturbed Results passed the digest gate: %v", rep.Problems)
	}
}

// TestRefusedRequestsRaiseFailedFrac drains the serve-hit backend, so every
// request is refused with a 503.
func TestRefusedRequestsRaiseFailedFrac(t *testing.T) {
	rc := testConfig(t, "serve-hit", false)
	w := &serveHit{env: rc.env}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	w.be.srv.Drain()
	pr, err := w.pass(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(rc)
	rep.gate(w, pr)
	rep.finish()
	if rep.FailedFrac != 1 || rep.Failed != testSizes.hitBatch {
		t.Fatalf("failed_frac %v (%d of %d), want every request counted as failed", rep.FailedFrac, rep.Failed, rep.Attempted)
	}
}

// TestServeHitKeysHoldTheirOwnResults simulates the most perturbed serve-hit
// key for real: the stored Results must be what that key computes to.
func TestServeHitKeysHoldTheirOwnResults(t *testing.T) {
	rc := testConfig(t, "serve-hit", false)
	rc.env.sizes.hitPoints = defaultSizes.hitPoints
	w := &serveHit{env: rc.env}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	last := len(w.keys) - 1
	var req struct {
		System, Core string
		Scale        float64
	}
	if err := json.Unmarshal(w.bodies[last], &req); err != nil {
		t.Fatal(err)
	}
	if req.Scale == 0.02 {
		t.Fatal("the last key is not perturbed")
	}
	jr, status, err := postRun(context.Background(), w.client, w.be.addr, w.bodies[last])
	if err != nil || status != 200 || !jr.Cached || jr.Key != w.keys[last] {
		t.Fatalf("status %d, cached %v, err %v", status, jr.Cached, err)
	}
	cfg := jr.Results.Config
	fresh, err := system.RunBenchmark(context.Background(), cfg, hitBench, req.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(fresh), resultJSON(jr.Results)) {
		t.Fatal("the Results stored under a perturbed-scale key differ from simulating that key")
	}
}

// TestSelfTimesSumToRoot: without overlapping siblings the self times
// partition the root span; overlapping siblings are covered once.
func TestSelfTimesSumToRoot(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	seq := []span{
		{ID: 1, Parent: 0, Name: "sweep", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "point", Start: ms(5), End: ms(45)},
		{ID: 3, Parent: 2, Name: "compute", Start: ms(10), End: ms(40)},
		{ID: 4, Parent: 1, Name: "point", Start: ms(50), End: ms(95)},
		{ID: 5, Parent: 4, Name: "compute", Start: ms(50), End: ms(90)},
	}
	var sum time.Duration
	for _, d := range selfTimes(seq) {
		sum += d
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	par := []span{
		{ID: 1, Parent: 0, Name: "sweep", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "point", Start: ms(0), End: ms(60)},
		{ID: 3, Parent: 1, Name: "point", Start: ms(30), End: ms(90)},
	}
	if got := selfTimes(par)["sweep"]; got != ms(10) {
		t.Errorf("sweep self time %v with overlapping points, want 10ms", got)
	}

	// A recorded sweep at parallelism 1 is such a tree.
	rec := newRecorder()
	plan := sweepPlan{benches: testSizes.sweepBenches, scale: testSizes.sweepScale, parallelism: 1}
	if _, err := plan.run(context.Background(), nil, rec); err != nil {
		t.Fatal(err)
	}
	spans := rec.pass("")
	sum = 0
	for _, d := range selfTimes(spans) {
		sum += d
	}
	n := map[string]int{}
	var root time.Duration
	for _, sp := range spans {
		n[sp.Name]++
		if sp.Name == spanSweep {
			root = sp.End - sp.Start
		}
	}
	if n[spanSweep] != 1 || n[spanPoint] != 15 || n[spanCacheDo] != 15 || n[spanCompute] != 15 {
		t.Errorf("span counts %v", n)
	}
	if sum != root {
		t.Errorf("recorded self times sum to %v, root span is %v", sum, root)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Value != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Value != 2 || s.Q3 != 4 {
		t.Errorf("got %+v", s)
	}
}

// TestCompare checks the verdicts and the refusal to compare across hosts.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, wall, q1, q3 float64, mutate func(*report)) string {
		rep := newReport(testConfig(t, "fig13-cold", false))
		rep.StatsDigest = "d"
		for _, spec := range endToEnd {
			rep.Metrics[spec.Name] = metricValue{summary: summary{Value: 1, Q1: 1, Q3: 1, N: 3}, Unit: spec.Unit}
		}
		rep.Metrics["wall_s"] = metricValue{summary: summary{Value: wall, Q1: q1, Q3: q3, N: 3}, Unit: "s"}
		if mutate != nil {
			mutate(rep)
		}
		path := filepath.Join(dir, name+".json")
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base", 1.0, 0.99, 1.01, nil)
	var out bytes.Buffer
	if code := compare(&out, base, mk("same", 1.05, 1.04, 1.06, nil)); code != 0 || !strings.Contains(out.String(), "1.050x") {
		t.Errorf("5%% slower, within the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, base, mk("slow", 1.4, 1.39, 1.41, nil)); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("40%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, base, mk("noisy", 1.4, 1.0, 1.8, nil)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, base, mk("digest", 1.0, 0.99, 1.01, func(r *report) { r.StatsDigest = "e" })); code != 1 || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("changed digest: exit %d\n%s", code, out.String())
	}
	if code := compare(&out, base, mk("host", 1.0, 0.99, 1.01, func(r *report) { r.Host.NProc = 64 })); code != 2 {
		t.Errorf("different host: exit %d, want a refusal", code)
	}
}
