package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/system"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	h := NewServer(cfg)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return h, ts
}

func postRun(t *testing.T, url string, req JobRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerSmoke drives the real simulator end to end: submit a job, get
// Results; submit it again, get the identical Results from cache; confirm
// the metrics and health endpoints tell the same story.
func TestServerSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	job := JobRequest{System: "SF", Core: "OOO8", Benchmark: "nn", Scale: 0.05}

	resp, data := postRun(t, ts.URL, job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, data)
	}
	var first JobResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first run reported cached")
	}
	if first.Results.Stats.Cycles == 0 || first.Results.Benchmark != "nn" {
		t.Errorf("implausible results: %+v", first.Results.Stats)
	}

	resp, data = postRun(t, ts.URL, job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp.StatusCode, data)
	}
	var second JobResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical run was not served from cache")
	}
	if second.Key != first.Key {
		t.Errorf("key changed between identical jobs: %s vs %s", first.Key, second.Key)
	}
	b1, _ := json.Marshal(first.Results)
	b2, _ := json.Marshal(second.Results)
	if !bytes.Equal(b1, b2) {
		t.Error("cached Results are not byte-identical to fresh")
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", hr.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metrics := string(mdata)
	for _, want := range []string{
		"sfserve_jobs_done 2",
		"sfserve_cache_hits 1",
		"sfserve_cache_misses 1",
		"sfserve_job_latency_seconds{quantile=\"0.5\"}",
		"sfserve_job_latency_seconds{quantile=\"0.99\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, job := range map[string]JobRequest{
		"missing benchmark": {System: "SF"},
		"unknown benchmark": {Benchmark: "typo"},
		"unknown system":    {System: "Nope", Benchmark: "nn"},
		"unknown core":      {Core: "OOO16", Benchmark: "nn"},
		"negative scale":    {Benchmark: "nn", Scale: -0.5},
	} {
		resp, data := postRun(t, ts.URL, job)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d, want 405", resp.StatusCode)
	}
	// A figure is a job: there is no synchronous figure endpoint.
	resp, err = http.Get(ts.URL + "/figure/13")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /figure/13 = %d, want 404", resp.StatusCode)
	}
}

// TestServerBackpressure fills the single worker and the one-deep queue with
// blocked jobs, then checks the next job bounces with 429 — and that the
// queue drains cleanly once unblocked.
func TestServerBackpressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan string, 4)
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		started <- bench
		select {
		case <-block:
			return system.Results{Benchmark: bench}, nil
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
	}
	h, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: runner})

	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 2)
	submit := func(bench string) {
		go func() {
			resp, data := postRun(t, ts.URL, JobRequest{Benchmark: bench, Scale: 0.05})
			replies <- reply{resp.StatusCode, string(data)}
		}()
	}

	submit("nn") // occupies the worker
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}
	submit("mv") // occupies the queue slot
	waitFor(t, func() bool { return h.queued.Load() == 1 })

	// Queue (workers+depth = 2 tickets) is full: immediate 429.
	resp, data := postRun(t, ts.URL, JobRequest{Benchmark: "conv3d", Scale: 0.05})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d (%s), want 429", resp.StatusCode, data)
	}

	close(block)
	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.status != http.StatusOK {
				t.Errorf("queued job: status %d (%s)", r.status, r.body)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued jobs did not drain")
		}
	}
}

// TestServerClientDisconnectCancels: when the client goes away mid-job, the
// simulation's context must be cancelled (this is what lets sfserve abandon
// a doomed event loop instead of simulating for a ghost).
func TestServerClientDisconnectCancels(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		close(started)
		<-ctx.Done()
		cancelled <- ctx.Err()
		return system.Results{}, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Runner: runner})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(JobRequest{Benchmark: "nn", Scale: 0.05})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	cancel() // client disconnect
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("runner ctx err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runner context never cancelled after client disconnect")
	}
	if err := <-errc; err == nil {
		t.Error("client request unexpectedly succeeded")
	}
}

// TestServerJobTimeout: a job exceeding its own timeout_ms comes back 504.
func TestServerJobTimeout(t *testing.T) {
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		<-ctx.Done()
		return system.Results{}, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Runner: runner})
	resp, data := postRun(t, ts.URL, JobRequest{Benchmark: "nn", TimeoutMS: 20})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out job: status %d (%s), want 504", resp.StatusCode, data)
	}
}

// TestServerDrain: draining flips health to 503 and rejects new jobs while
// metrics stay reachable.
func TestServerDrain(t *testing.T) {
	h, ts := newTestServer(t, Config{})
	h.Drain()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", hr.StatusCode)
	}
	resp, data := postRun(t, ts.URL, JobRequest{Benchmark: "nn"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /run = %d (%s), want 503", resp.StatusCode, data)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK || !strings.Contains(string(mdata), "sfserve_jobs_rejected 1") {
		t.Errorf("draining /metrics = %d:\n%s", mr.StatusCode, mdata)
	}
}

// TestServerSampledRun: a job carrying sampling parameters runs the sampled
// estimator under its own cache key (so sampled estimates can never serve a
// full-fidelity request) and its reply carries the estimate; a sampled figure
// job whose point the /run above already cached still carries the sampling
// footnote and summary.
func TestServerSampledRun(t *testing.T) {
	h, ts := newTestServer(t, Config{})
	full := JobRequest{System: "SF", Core: "OOO8", Benchmark: "nn", Scale: 0.05}
	sampled := full
	sampled.Sample = &config.SampleParams{Intervals: 8, Measure: 2}

	resp, data := postRun(t, ts.URL, full)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full run: %d %s", resp.StatusCode, data)
	}
	var fr JobResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	resp, data = postRun(t, ts.URL, sampled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled run: %d %s", resp.StatusCode, data)
	}
	var sr JobResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Key == fr.Key {
		t.Error("sampled job shares the full run's cache key")
	}
	if sr.Cached {
		t.Error("fresh sampled job reported cached")
	}
	if sr.Results.Sampled == nil || fr.Results.Sampled != nil {
		t.Errorf("Results.Sampled: sampled reply %v, full reply %v; want only the sampled one set", sr.Results.Sampled, fr.Results.Sampled)
	}
	fc, sc := float64(fr.Results.Stats.Cycles), float64(sr.Results.Stats.Cycles)
	if sc == 0 || sc < fc/2 || sc > fc*2 {
		t.Errorf("sampled estimate %v implausible vs full %v", sc, fc)
	}

	bad := full
	bad.Sample = &config.SampleParams{Intervals: -1}
	if resp, _ := postRun(t, ts.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sampling params = %d, want 400", resp.StatusCode)
	}

	// The sampled /run point serves the figure's from the cache (the sanitize
	// mode the two paths differ in is outside the key).
	id := submitJobSpec(t, ts.URL, JobSpec{Figure: &FigureSpec{ID: "14", Scale: 0.05, Benchmarks: []string{"nn"},
		Sample: &config.SampleParams{Intervals: 8, Measure: 2}}})
	waitJobState(t, ts.URL, id, JobDone)
	code, res, body := getJobResult(t, ts.URL, id)
	if code != http.StatusOK || res.Figure == nil {
		t.Fatalf("sampled figure job result = %d (%s)", code, body)
	}
	if !strings.Contains(strings.Join(res.Figure.Notes, "\n"), "sampled simulation") || res.Figure.Sampling == nil {
		t.Errorf("sampled figure job: notes %q, sampling %v; want the sampling footnote and summary", res.Figure.Notes, res.Figure.Sampling)
	}
	if m := h.cfg.Store.Stats().Misses; m != 2 {
		t.Errorf("store misses = %d, want 2 (the figure's point is the sampled /run's)", m)
	}
}

// waitFor polls cond with a 5s deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunBodyOracle: a /run body, spliced from the stored entry bytes, is
// byte-identical to writeJSON of the JobResponse carrying the same point's
// Results, for all four ways a point is served: computed, memory hit, disk
// hit (a fresh Store over the same directory), and singleflight follower.
// Every decoded Results equals a fresh run.
func TestRunBodyOracle(t *testing.T) {
	job := JobRequest{System: "SF", Core: "OOO8", Benchmark: "nn", Scale: 0.05}
	cfg, bench, scale, err := job.resolve()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := system.RunBenchmark(context.Background(), cfg, bench, scale)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, data []byte, wantCached bool) {
		t.Helper()
		var got JobResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v in %s", name, err, data)
		}
		if got.Cached != wantCached || got.Key != system.CacheKey(cfg, bench, scale) {
			t.Errorf("%s: key %s cached %v, want cached %v", name, got.Key, got.Cached, wantCached)
		}
		if !reflect.DeepEqual(got.Results, fresh) {
			t.Errorf("%s: decoded Results differ from a fresh run", name)
		}
		want := httptest.NewRecorder()
		writeJSON(want, JobResponse{Key: got.Key, Cached: got.Cached, ElapsedMS: got.ElapsedMS, Results: fresh})
		if !bytes.Equal(data, want.Body.Bytes()) {
			t.Errorf("%s: spliced body differs from writeJSON:\ngot  %s\nwant %s", name, data, want.Body.Bytes())
		}
	}
	run := func(url string) []byte {
		t.Helper()
		resp, data := postRun(t, url, job)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("/run = %d %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), data)
		}
		return data
	}

	dir := t.TempDir()
	st, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})
	check("computed", run(ts.URL), false)
	check("memory hit", run(ts.URL), true)
	st2, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Store: st2})
	check("disk hit", run(ts2.URL), true)
	if s := st2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("fresh store stats %+v, want one disk hit", s)
	}

	// The leader's runner blocks until the follower is parked on its call.
	entered, release := make(chan struct{}), make(chan struct{})
	st3, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Two workers: the follower must reach the Store's singleflight while
	// the blocked leader holds a worker slot.
	_, ts3 := newTestServer(t, Config{Store: st3, Workers: 2, Runner: func(context.Context, config.Config, string, float64) (system.Results, error) {
		close(entered)
		<-release
		return fresh, nil
	}})
	bodies := make(chan []byte, 2)
	go func() { bodies <- run(ts3.URL) }()
	<-entered
	go func() { bodies <- run(ts3.URL) }()
	waitFor(t, func() bool { return st3.Stats().Dedups == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		data := <-bodies
		var jr JobResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatal(err)
		}
		name := "singleflight leader"
		if jr.Cached {
			name = "singleflight follower"
		}
		check(name, data, jr.Cached)
	}
	if s := st3.Stats(); s.Misses != 1 || s.Dedups != 1 {
		t.Errorf("singleflight stats %+v, want one computation shared", s)
	}

	// The hand-spelled head matches encoding/json over the whole range of
	// elapsed times a reply can carry: 0 or whole microseconds.
	enc := newEntry("k", fresh).enc
	for _, us := range []int64{0, 1, 7, 10, 999, 1000, 1234567, 3_600_000_000, 1 << 53} {
		resp := JobResponse{Key: system.CacheKey(cfg, bench, scale), Cached: us%2 == 0, ElapsedMS: float64(us) / 1e3}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeRun(got, resp, enc)
		resp.Results = fresh
		writeJSON(want, resp)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%d us: writeRun %s\nwriteJSON %s", us, got.Body.Bytes()[:80], want.Body.Bytes()[:80])
		}
	}
}

// TestServerRunBodyTooLarge: a POST /run body over maxBodyBytes is refused
// with 413 before anything is decoded or run.
func TestServerRunBodyTooLarge(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, Config{Runner: markRunner(&calls)})
	body := `{"benchmark":"nn","system":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /run body = %d, want 413", resp.StatusCode)
	}
	if calls.Load() != 0 {
		t.Errorf("runner ran %d times for a refused body", calls.Load())
	}
}
