package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// TestStoreCountsFaults: the Store counts the faults its computes contain,
// once, by the caller that ran the compute. A panic shared with a
// singleflight follower is one panic, and its replays from memory or from a
// restarted Store's poison file are no new ones. A stall kill is counted
// and, being retryable, not quarantined.
func TestStoreCountsFaults(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	boom := func() (system.Results, error) {
		calls.Add(1)
		// Hold the compute until the follower has joined it.
		for deadline := time.Now().Add(5 * time.Second); st.Stats().Dedups == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return system.Results{}, fault.Guard(context.Background(), "", 0, 0, func(context.Context) error {
			panic("injected simulator fault")
		})
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := st.Do(context.Background(), "deadbeef", boom)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		err := <-errs
		if pe, ok := fault.As(err); !ok || pe.Kind != fault.KindPanic {
			t.Fatalf("shared Do err = %v, want a contained panic", err)
		}
	}
	if _, err := st.Do(context.Background(), "deadbeef", boom); !fault.IsPoisoned(err) {
		t.Fatalf("memory replay err = %v, want the quarantined panic", err)
	}
	if s := st.Stats(); calls.Load() != 1 || s.Dedups != 1 || s.Panics != 1 || s.PoisonHits != 1 {
		t.Errorf("after a shared panic and a memory replay: %d computes, stats %+v; want 1 compute, 1 dedup, 1 panic, 1 poison hit", calls.Load(), s)
	}

	restarted, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Do(context.Background(), "deadbeef", boom); !fault.IsPoisoned(err) {
		t.Fatalf("disk replay err = %v, want the quarantined panic", err)
	}
	if s := restarted.Stats(); calls.Load() != 1 || s.Panics != 0 || s.PoisonHits != 1 {
		t.Errorf("after a disk replay: %d computes, stats %+v; want no compute and no new panic", calls.Load(), s)
	}

	stuck := func() (system.Results, error) {
		calls.Add(1)
		return system.Results{}, fault.Guard(context.Background(), "", 20*time.Millisecond, 0, func(ctx context.Context) error {
			hb := fault.HeartbeatFrom(ctx)
			for ctx.Err() == nil {
				hb.Publish(1, 42) // events tick, cycle frozen: a livelock
				time.Sleep(time.Millisecond)
			}
			return ctx.Err()
		})
	}
	for i := 1; i <= 2; i++ {
		_, err := st.Do(context.Background(), "feedface", stuck)
		if pe, ok := fault.As(err); !ok || !pe.Stuck {
			t.Fatalf("stalled Do #%d err = %v, want a stall kill", i, err)
		}
		if s := st.Stats(); s.WatchdogKills != uint64(i) || s.Panics != 1 || s.Poisoned != 1 {
			t.Errorf("after stall kill #%d: stats %+v; want %d kills, the panic alone quarantined", i, s, i)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("%d computes, want the stalled point recomputed (3 in all)", n)
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

// TestJobsKillRestartQuarantine: a keep-going figure job is killed before
// it ran, and the crashed process had finished all its points but one,
// which panicked and was quarantined. The restarted server resumes the job:
// the finished points replay from disk, and the quarantined one is skipped
// through its poison file, never recomputed, and named in the table's
// failures.
func TestJobsKillRestartQuarantine(t *testing.T) {
	keys, _, _ := tinyReference(t)
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	spec := tinyFigure()
	spec.KeepGoing = true
	id := killQueued(t, cacheDir, journalDir, spec)
	if rec, ok := recoverJob(t, mustJournal(t, journalDir), id); !ok || !rec.Resumable() {
		t.Fatalf("journal after kill: ok=%v state=%s, want a resumable job", ok, rec.State)
	}
	seedCache(t, cacheDir, keys[1:]...)
	poisonKey(t, cacheDir, keys[0])

	st := mustStore(t, cacheDir)
	_, ts := newTestServer(t, Config{Store: st, Journal: mustJournal(t, journalDir)})
	got := waitJobState(t, ts.URL, id, JobDone)
	if p := got.Progress; p.Failed != 1 || p.Completed != tinyFigurePoints-1 {
		t.Errorf("resumed progress %+v, want 1 failed point and the rest completed", p)
	}
	if s := st.Stats(); s.Misses != 0 || s.PoisonHits != 1 || s.DiskHits != tinyFigurePoints-1 {
		t.Errorf("store stats %+v: the completed and quarantined points must replay, nothing recomputed", s)
	}

	code, res, body := getJobResult(t, ts.URL, id)
	if code != http.StatusOK || res.Figure == nil {
		t.Fatalf("resumed result = %d (%s)", code, body)
	}
	if f := res.Figure.Failures; len(f) != 1 || f[0].Key != keys[0] || f[0].Kind != fault.KindPanic || !f[0].Quarantined {
		t.Errorf("table failures %+v, want the quarantined panic of %s", f, keys[0])
	}
}

// TestServerPanicCountedOnce: two /run calls sharing one poisoned point's
// simulation (a singleflight leader and its follower) both answer 422 and
// contain one panic, and /metrics counts one — only the caller that ran
// the simulation counts it.
func TestServerPanicCountedOnce(t *testing.T) {
	st := mustStore(t, "")
	var calls atomic.Int64
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		calls.Add(1)
		// Hold the simulation until the second call has joined it.
		for deadline := time.Now().Add(5 * time.Second); st.Stats().Dedups == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		panic("injected simulator fault")
	}
	_, ts := newTestServer(t, Config{Store: st, Runner: runner, Workers: 2})
	body, _ := json.Marshal(JobRequest{Benchmark: "mv", Scale: 0.05})
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusUnprocessableEntity {
			t.Errorf("/run of the shared poisoned point = %d, want 422", code)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the shared point simulated %d times, want 1", n)
	}
	if st.Stats().Dedups != 1 {
		t.Fatalf("store stats %+v: the second call never joined the first's simulation", st.Stats())
	}
	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "sfserve_panics_total 1\n") {
		t.Errorf("one contained panic, metrics say otherwise:\n%s", m)
	}
}

// TestFigureStoreCountsFaults: a figure sweep's points go through the same
// Store lookup as /run, so a panic contained in one is counted, quarantined
// and replayed without recomputing.
func TestFigureStoreCountsFaults(t *testing.T) {
	h, ts := newTestServer(t, Config{})
	var calls atomic.Int64
	compute := func() (system.Results, error) {
		calls.Add(1)
		return system.Results{}, fault.Guard(context.Background(), "", 0, 0, func(context.Context) error {
			panic("injected simulator fault")
		})
	}
	for i := 0; i < 2; i++ {
		_, err := h.cfg.Store.Do(context.Background(), "figure-point", compute)
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
