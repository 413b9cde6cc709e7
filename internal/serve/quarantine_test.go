package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/system"
)

// getBody GETs a URL and returns its body as a string.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// panicRunner panics on the marked benchmark and produces marker results for
// every other point, counting invocations per benchmark.
func panicRunner(calls *atomic.Int64, panicBench string) func(context.Context, config.Config, string, float64) (system.Results, error) {
	return func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		calls.Add(1)
		if bench == panicBench {
			panic("injected simulator fault")
		}
		return system.Results{Benchmark: fmt.Sprintf("%s@%.2f", bench, scale)}, nil
	}
}

// TestStoreQuarantine: a deterministic failure is recorded as a negative
// entry under the key — later callers replay the typed error without
// recomputing, in memory and across a restart via <key>.poison.json.
func TestStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	boom := func() (system.Results, error) {
		calls.Add(1)
		return system.Results{}, fault.FromPanic("", "injected simulator fault")
	}

	_, err = st.Do(context.Background(), "deadbeef", boom)
	pe, ok := fault.As(err)
	if !ok || pe.Kind != fault.KindPanic {
		t.Fatalf("first Do err = %v, want typed panic", err)
	}
	if pe.Quarantined {
		t.Error("the computing caller must see the original failure, not the quarantine replay")
	}

	// Replay from memory: no recompute, error marked Quarantined.
	_, err = st.Do(context.Background(), "deadbeef", boom)
	pe, ok = fault.As(err)
	if !ok || !pe.Quarantined || pe.Key != "deadbeef" {
		t.Fatalf("second Do err = %v, want quarantined replay", err)
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if s := st.Stats(); s.Poisoned != 1 || s.PoisonHits != 1 {
		t.Errorf("stats %+v, want 1 poisoned / 1 hit", s)
	}

	// Restart: a fresh Store over the same dir replays from disk.
	st2, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st2.Do(context.Background(), "deadbeef", boom)
	if pe, ok = fault.As(err); !ok || !pe.Quarantined {
		t.Fatalf("post-restart Do err = %v, want quarantined replay", err)
	}
	if calls.Load() != 1 {
		t.Errorf("restart recomputed the poisoned key (%d calls)", calls.Load())
	}

	// Non-deterministic failures must stay retryable: never quarantined.
	_, err = st.Do(context.Background(), "cafef00d", func() (system.Results, error) {
		return system.Results{}, fault.Classify("", context.DeadlineExceeded)
	})
	if pe, ok = fault.As(err); !ok || pe.Kind != fault.KindTimeout {
		t.Fatalf("timeout Do err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cafef00d.poison.json")); st.Stats().Poisoned != 1 || !os.IsNotExist(err) {
		t.Errorf("a timeout was quarantined (stats %+v, poison file stat %v)", st.Stats(), err)
	}
}

// TestServerPoisonedPoint422: a panicking point must not take the server
// down — it returns a typed 422, increments sfserve_panics_total, degrades
// /healthz, and re-requests replay the quarantine without re-simulating.
func TestServerPoisonedPoint422(t *testing.T) {
	var calls atomic.Int64
	h, ts := newTestServer(t, Config{Runner: panicRunner(&calls, "mv")})
	bad := JobRequest{System: "SF", Core: "OOO8", Benchmark: "mv", Scale: 0.05}

	resp, data := postRun(t, ts.URL, bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned run: %d %s", resp.StatusCode, data)
	}
	var pe fault.PointError
	if err := json.Unmarshal(data, &pe); err != nil {
		t.Fatalf("422 body %q: %v", data, err)
	}
	if pe.Kind != fault.KindPanic || !pe.Quarantined || pe.Key == "" {
		t.Errorf("422 fault = %+v, want quarantined panic with key", pe)
	}
	if !strings.Contains(pe.Msg, "injected simulator fault") {
		t.Errorf("fault msg %q lost the panic value", pe.Msg)
	}
	if pe.Stack != "" {
		t.Error("served fault must not leak the backend stack trace")
	}

	// The panic was contained: the same server still computes good points.
	resp, data = postRun(t, ts.URL, JobRequest{System: "SF", Core: "OOO8", Benchmark: "nn", Scale: 0.05})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good run after contained panic: %d %s", resp.StatusCode, data)
	}

	// Re-requesting the poisoned point replays the quarantine: still 422,
	// no new simulation.
	before := calls.Load()
	resp, _ = postRun(t, ts.URL, bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("replayed poisoned run: %d", resp.StatusCode)
	}
	if calls.Load() != before {
		t.Error("quarantined point was re-simulated")
	}

	metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sfserve_panics_total 1",
		"sfserve_points_quarantined 1",
		"sfserve_cache_poison_hits 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health Health
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("degraded healthz = %d, want 200 (LBs key on 503 only while draining)", hresp.StatusCode)
	}
	if health.Status != "degraded" || health.Panics != 1 || health.PointsQuarantined != 1 {
		t.Errorf("health = %+v, want degraded with 1 panic / 1 quarantined", health)
	}
	_ = h
}

// TestServerStallWatchdog: with Config.StallTimeout armed, a runner whose
// simulated clock never advances is killed as stuck — a retryable timeout
// (504), not a quarantine.
func TestServerStallWatchdog(t *testing.T) {
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		hb := fault.HeartbeatFrom(ctx)
		for ctx.Err() == nil {
			hb.Publish(1, 42) // events tick, cycle frozen: a livelock
			time.Sleep(time.Millisecond)
		}
		return system.Results{}, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Runner: runner, StallTimeout: 50 * time.Millisecond})
	resp, data := postRun(t, ts.URL, JobRequest{System: "SF", Core: "OOO8", Benchmark: "nn", Scale: 0.05})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stuck run: %d %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "no event-loop progress") {
		t.Errorf("stuck error %q does not name the stall", data)
	}
	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "sfserve_watchdog_kills_total 1") {
		t.Error("watchdog kill not counted in metrics")
	}
}

// TestJobsKillRestartQuarantine: a keep-going job is killed mid-flight after
// one point was poisoned; the restarted server resumes it and the poisoned
// point is skipped via the Store's poison file, never recomputed.
func TestJobsKillRestartQuarantine(t *testing.T) {
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	spec := JobSpec{KeepGoing: true, Points: []JobRequest{
		{Benchmark: "nn", Scale: 0.01},
		{Benchmark: "mv", Scale: 0.02},
		{Benchmark: "nn", Scale: 0.03},
	}}
	newJournalServer := func(runner func(context.Context, config.Config, string, float64) (system.Results, error)) (*Server, *httptest.Server) {
		st, err := NewStore(0, cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		jn, err := OpenJournal(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(Config{Store: st, Runner: runner, Journal: jn})
		return h, httptest.NewServer(h)
	}

	// Server A: point 1 completes, point 2 panics (quarantined on disk),
	// point 3 blocks until the kill.
	var callsA atomic.Int64
	blocked := make(chan struct{})
	runnerA := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		switch callsA.Add(1) {
		case 2:
			panic("injected simulator fault")
		case 3:
			close(blocked)
			<-ctx.Done()
			return system.Results{}, ctx.Err()
		}
		return system.Results{Benchmark: fmt.Sprintf("%s@%.2f", bench, scale)}, nil
	}
	hA, tsA := newJournalServer(runnerA)
	id := submitJobSpec(t, tsA.URL, spec)
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached its 3rd point")
	}
	hA.Kill()
	tsA.Close()

	jn, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := recoverJob(t, jn, id); !ok || !rec.Resumable() {
		t.Fatalf("journal after kill: ok=%v state=%s, want a resumable job", ok, rec.State)
	}
	poison, err := filepath.Glob(filepath.Join(cacheDir, "*.poison.json"))
	if err != nil || len(poison) != 1 {
		t.Fatalf("store holds poison files %v (err %v), want the one panicked point", poison, err)
	}

	// Server B resumes: point 1 replays from disk and point 3 is
	// recomputed — but never the quarantined point 2.
	var callsB atomic.Int64
	benchesB := make(chan string, 8)
	runnerB := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		callsB.Add(1)
		benchesB <- bench
		return system.Results{Benchmark: fmt.Sprintf("%s@%.2f", bench, scale)}, nil
	}
	_, tsB := newJournalServer(runnerB)
	defer tsB.Close()
	st := waitJobState(t, tsB.URL, id, JobDone)
	if st.Progress.Failed != 1 {
		t.Errorf("resumed progress %+v, want 1 failed point", st.Progress)
	}
	if got := callsB.Load(); got != 1 {
		t.Errorf("restart ran %d simulations, want 1 (the completed and quarantined points must replay)", got)
	}
	close(benchesB)
	for b := range benchesB {
		if b == "mv" {
			t.Error("the quarantined mv point was recomputed on resume")
		}
	}

	code, res, body := getJobResult(t, tsB.URL, id)
	if code != http.StatusOK {
		t.Fatalf("resumed result = %d (%s)", code, body)
	}
	if len(res.Points) != 3 {
		t.Fatalf("resumed result has %d points, want 3", len(res.Points))
	}
	p := res.Points[1]
	if p.Fault == nil || p.Fault.Kind != fault.KindPanic || !p.Fault.Quarantined || p.Error == "" {
		t.Errorf("poisoned point response = %+v, want quarantined panic fault", p)
	}
	for _, i := range []int{0, 2} {
		if res.Points[i].Fault != nil || res.Points[i].Results.Benchmark == "" {
			t.Errorf("healthy point %d carries a fault or empty results: %+v", i, res.Points[i])
		}
	}
}

// TestServerPanicCountedOnce: two jobs sharing one poisoned point's
// simulation (a singleflight leader and its follower) contain one panic,
// and /metrics counts one — only the caller that ran the simulation counts
// it.
func TestServerPanicCountedOnce(t *testing.T) {
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		calls.Add(1)
		// Hold the simulation until the second job has joined it.
		for deadline := time.Now().Add(5 * time.Second); st.Stats().Dedups == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		panic("injected simulator fault")
	}
	_, ts := newTestServer(t, Config{Store: st, Runner: runner, Workers: 2})
	spec := JobSpec{Points: []JobRequest{{Benchmark: "mv", Scale: 0.05}}}
	a := submitJobSpec(t, ts.URL, spec)
	b := submitJobSpec(t, ts.URL, spec)
	waitJobState(t, ts.URL, a, JobFailed)
	waitJobState(t, ts.URL, b, JobFailed)
	if n := calls.Load(); n != 1 {
		t.Fatalf("the shared point simulated %d times, want 1", n)
	}
	if st.Stats().Dedups != 1 {
		t.Fatalf("store stats %+v: the second job never joined the first's simulation", st.Stats())
	}
	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "sfserve_panics_total 1\n") {
		t.Errorf("one contained panic, metrics say otherwise:\n%s", m)
	}
}

// TestFigureCacheCountsFaults: a figure sweep's points go through the same
// Server.point as /run, so a panic contained in one is counted, quarantined
// and replayed without recomputing.
func TestFigureCacheCountsFaults(t *testing.T) {
	h, ts := newTestServer(t, Config{})
	var calls atomic.Int64
	compute := func() (system.Results, error) {
		calls.Add(1)
		return system.Results{}, fault.Guard(context.Background(), "", 0, 0, func(context.Context) error {
			panic("injected simulator fault")
		})
	}
	fc := figureCache{s: h}
	for i := 0; i < 2; i++ {
		_, err := fc.Do(context.Background(), "figure-point", compute)
		if pe, ok := fault.As(err); !ok || pe.Kind != fault.KindPanic {
			t.Fatalf("Do #%d err = %v, want a contained panic", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the poisoned figure point simulated %d times, want 1", n)
	}
	metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{"sfserve_panics_total 1\n", "sfserve_points_quarantined 1\n", "sfserve_cache_poison_hits 1\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
