package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestServerFigure: /figure/{id} renders a real (tiny) figure through the
// shared cache in all three formats.
func TestServerFigure(t *testing.T) {
	h, ts := newTestServer(t, Config{})
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	code, body := get("/figure/13?scale=0.05&bench=nn")
	if code != http.StatusOK || !strings.Contains(body, "nn") {
		t.Fatalf("/figure/13 text: %d\n%s", code, body)
	}
	code, body = get("/figure/13?scale=0.05&bench=nn&format=csv")
	if code != http.StatusOK || !strings.Contains(body, ",") {
		t.Errorf("/figure/13 csv: %d\n%s", code, body)
	}
	code, body = get("/figure/13?scale=0.05&bench=nn&format=json")
	if code != http.StatusOK || !strings.Contains(body, "\"title\"") {
		t.Errorf("/figure/13 json: %d\n%s", code, body)
	}
	// The three renders hit the same simulation points: everything after the
	// first sweep must be served from cache.
	if s := h.cfg.Store.Stats(); s.Hits == 0 {
		t.Errorf("figure re-renders did not hit the cache: %+v", s)
	}

	// A malformed (non-numeric, non-named) id is the caller's error: 400.
	// Unknown-but-well-formed ids and trailing path segments stay 404.
	if code, _ := get("/figure/nope"); code != http.StatusBadRequest {
		t.Errorf("/figure/nope = %d, want 400", code)
	}
	if code, _ := get("/figure/99"); code != http.StatusNotFound {
		t.Errorf("/figure/99 = %d, want 404 (numeric but unknown)", code)
	}
	if code, _ := get("/figure/13/extra"); code != http.StatusNotFound {
		t.Errorf("/figure/13/extra = %d, want 404 (trailing segment, not an id parse)", code)
	}
	if code, _ := get("/figure/"); code != http.StatusNotFound {
		t.Errorf("/figure/ = %d, want 404", code)
	}
	if code, _ := get("/figure/13?scale=-1"); code != http.StatusBadRequest {
		t.Errorf("bad scale = %d, want 400", code)
	}
	if code, _ := get("/figure/13?bench=typo"); code != http.StatusBadRequest {
		t.Errorf("bad bench = %d, want 400", code)
	}
}

// TestServerSampledRun: a job carrying sampling parameters runs the sampled
// estimator under its own cache key (so sampled estimates can never serve a
// full-fidelity request), and a sampled figure render carries the sampling
// footnote.
func TestServerSampledRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
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
	fc, sc := float64(fr.Results.Stats.Cycles), float64(sr.Results.Stats.Cycles)
	if sc == 0 || sc < fc/2 || sc > fc*2 {
		t.Errorf("sampled estimate %v implausible vs full %v", sc, fc)
	}

	bad := full
	bad.Sample = &config.SampleParams{Intervals: -1}
	if resp, _ := postRun(t, ts.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sampling params = %d, want 400", resp.StatusCode)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}
	// A scale no request above used: the footnote counts fresh points only,
	// and the sampled /run point would otherwise serve the figure's from the
	// cache (the sanitize mode the two paths differ in is outside the key).
	code, body := get("/figure/14?scale=0.04&bench=nn&sample-intervals=8&sample-measure=2")
	if code != http.StatusOK || !strings.Contains(body, "sampled simulation") {
		t.Errorf("sampled /figure/14: %d\n%s", code, body)
	}
	if code, _ := get("/figure/14?sample=zzz"); code != http.StatusBadRequest {
		t.Errorf("bad sample query = %d, want 400", code)
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
