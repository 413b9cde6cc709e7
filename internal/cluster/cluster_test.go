package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/cluster/chaos"
	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

// newBackend starts a real sfserve backend (memory-only store, real
// simulator unless runner is non-nil) on an httptest listener.
func newBackend(t *testing.T, runner func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error)) *httptest.Server {
	t.Helper()
	st, err := serve.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(serve.Config{Store: st, Runner: runner}))
	t.Cleanup(ts.Close)
	return ts
}

// sweepClient builds a Client for deterministic sweep tests: fast backoff
// and a distinctive origin label for the /metrics assertion.
func sweepClient(t *testing.T, backends ...string) *Client {
	t.Helper()
	c, err := New(Config{
		Backends:    backends,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Origin:      "cluster-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// shardScales finds n distinct scale values whose cache keys all hash to the
// given backend as their primary shard. Keys must be real system.CacheKey
// values (the client validates the response key against its own), so tests
// steer shard placement by searching the scale axis instead of forging keys.
func shardScales(t *testing.T, c *Client, cfg config.Config, bench string, backend, n int) []float64 {
	t.Helper()
	var out []float64
	for s := 0.01; len(out) < n && s < 50; s += 0.01 {
		if c.ring.successors(system.CacheKey(cfg, bench, s))[0] == backend {
			out = append(out, s)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d scales sharded to backend %d", len(out), n, backend)
	}
	return out
}

// fig13Ref computes the local (no cluster) Fig 13 reference table once and
// shares it across the sweep tests — it is the same 15 spot simulations
// each remote sweep must reproduce bit-for-bit.
var fig13Ref struct {
	once sync.Once
	tbl  *experiments.Table
	err  error
}

func fig13Opts() experiments.Options {
	return experiments.Options{Scale: 0.05, Benchmarks: []string{"nn"}}
}

// fig13 regenerates Fig 13 through the package's one figure entry point.
func fig13(opts experiments.Options) (*experiments.Table, error) {
	fn, _ := experiments.ByName("13")
	return fn(opts)
}

func localFig13(t *testing.T) *experiments.Table {
	t.Helper()
	fig13Ref.once.Do(func() {
		fig13Ref.tbl, fig13Ref.err = fig13(fig13Opts())
	})
	if fig13Ref.err != nil {
		t.Fatalf("local Fig13: %v", fig13Ref.err)
	}
	return fig13Ref.tbl
}

// originRequests scrapes one backend's /metrics for the per-origin request
// counter stamped by the cluster client.
func originRequests(t *testing.T, backendURL, origin string) uint64 {
	t.Helper()
	resp, err := http.Get(backendURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	prefix := fmt.Sprintf("sfserve_requests_total{origin=%q} ", origin)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 10, 64)
			if err != nil {
				t.Fatalf("bad metrics line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestClusterSweepMatchesLocal is the headline acceptance test: a Fig 13
// sweep at spot scale fanned over a 3-backend cluster must be
// reflect.DeepEqual-identical to the same sweep computed locally — remote
// execution is an implementation detail, not an observable one.
func TestClusterSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("3-backend sweep runs 15 real simulations")
	}
	b0, b1, b2 := newBackend(t, nil), newBackend(t, nil), newBackend(t, nil)
	c := sweepClient(t, b0.URL, b1.URL, b2.URL)

	opts := fig13Opts()
	opts.Cache = c
	got, err := fig13(opts)
	if err != nil {
		t.Fatalf("cluster Fig13: %v", err)
	}
	if want := localFig13(t); !reflect.DeepEqual(got, want) {
		t.Errorf("cluster sweep diverged from local sweep:\ngot  %+v\nwant %+v", got, want)
	}

	st := c.Stats()
	if st.Remote != 15 {
		t.Errorf("remote points = %d, want 15 (3 cores x 5 systems x 1 bench)", st.Remote)
	}
	if st.Fallbacks != 0 || st.Mismatches != 0 {
		t.Errorf("healthy cluster degraded: %+v", st)
	}

	// The backends attribute the load to this client's origin label, and
	// consistent hashing actually spreads the 15 points around.
	var total uint64
	hit := 0
	for _, b := range []*httptest.Server{b0, b1, b2} {
		n := originRequests(t, b.URL, "cluster-test")
		total += n
		if n > 0 {
			hit++
		}
	}
	if total != 15 {
		t.Errorf("backends counted %d cluster-test requests, want 15", total)
	}
	if hit < 2 {
		t.Errorf("only %d/3 backends received work; sharding is not spreading", hit)
	}
}

// fig13Keys enumerates the 15 cache keys of the Fig 13 "nn" spot sweep —
// the same (system, core) grid runAll derives, so tests can predict shard
// placement before running anything.
func fig13Keys(t *testing.T) []string {
	t.Helper()
	var keys []string
	for _, core := range []config.CoreKind{config.IO4, config.OOO4, config.OOO8} {
		for _, sys := range []string{"Base", "Stride", "Bingo", "SS", "SF"} {
			cfg, err := config.ForSystem(sys, core)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, system.CacheKey(cfg, "nn", 0.05))
		}
	}
	return keys
}

// TestClusterFailoverMidSweep kills one backend partway through the sweep (a
// chaos proxy forwards its first two requests, then severs every connection)
// and requires the sweep to complete — degraded, retried, but bit-identical
// to the local reference and with zero local fallbacks.
func TestClusterFailoverMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("failover sweep runs 15 real simulations")
	}
	b0, b1, b2 := newBackend(t, nil), newBackend(t, nil), newBackend(t, nil)
	proxy := chaos.New(b1.URL, func(n int, _ *http.Request) chaos.Decision {
		if n < 2 {
			return chaos.Decision{}
		}
		return chaos.Decision{Fault: chaos.FaultDrop}
	})
	// Ring positions hash the backend address, and the proxy's address is its
	// random httptest port — so the doomed backend's shard size varies run to
	// run, and could be too small to ever hit the drop script. Re-roll the
	// listener until that backend owns at least 3 of the sweep's 15 keys,
	// guaranteeing the kill actually fires mid-sweep.
	keys := fig13Keys(t)
	var pts *httptest.Server
	for try := 0; ; try++ {
		pts = httptest.NewServer(proxy)
		owned := 0
		r := newRing([]string{b0.URL, pts.URL, b2.URL})
		for _, k := range keys {
			if r.successors(k)[0] == 1 {
				owned++
			}
		}
		if owned >= 3 {
			break
		}
		pts.Close()
		if try > 200 {
			t.Fatal("could not find a listener port giving the doomed backend >= 3 keys")
		}
	}
	t.Cleanup(pts.Close)
	c := sweepClient(t, b0.URL, pts.URL, b2.URL)

	opts := fig13Opts()
	opts.Cache = c
	got, err := fig13(opts)
	if err != nil {
		t.Fatalf("sweep with a dying backend: %v", err)
	}
	if want := localFig13(t); !reflect.DeepEqual(got, want) {
		t.Errorf("failover sweep diverged from local sweep:\ngot  %+v\nwant %+v", got, want)
	}
	st := c.Stats()
	if st.Remote != 15 || st.Fallbacks != 0 {
		t.Errorf("every point should still be served remotely via failover: %+v", st)
	}
	if proxy.Injected(chaos.FaultDrop) == 0 {
		t.Error("the chaos proxy never dropped a request; the test exercised nothing")
	}
}

// TestClusterAllBackendsDownFallsBackLocal: with every backend unreachable,
// DoPoint degrades to the local path — and when that path is a serve.Store,
// degraded points are cached like any other.
func TestClusterAllBackendsDownFallsBackLocal(t *testing.T) {
	store, err := serve.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		// Port 1 refuses connections immediately, so the test fails fast
		// rather than waiting on timeouts.
		Backends:    []string{"127.0.0.1:1", "127.0.0.2:1"},
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Local:       store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	key := system.CacheKey(cfg, "nn", 0.05)
	want := system.Results{Benchmark: "local-fallback"}
	computes := 0
	compute := func() (system.Results, error) { computes++; return want, nil }

	res, err := c.DoPoint(context.Background(), key, cfg, "nn", 0.05, compute)
	if err != nil {
		t.Fatalf("DoPoint with a dead cluster: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("fallback result %+v, want %+v", res, want)
	}
	st := c.Stats()
	if st.Fallbacks != 1 || st.Remote != 0 {
		t.Errorf("stats %+v, want exactly one fallback and no remote points", st)
	}

	// Second request for the same point: still degraded, but served from the
	// local store without recomputing.
	if _, err := c.DoPoint(context.Background(), key, cfg, "nn", 0.05, compute); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("compute ran %d times; the local store should have cached the fallback", computes)
	}
}

// stubRunner returns a backend runner producing a marker result after an
// optional delay (respecting cancellation, as the real simulator does).
func stubRunner(marker string, delay time.Duration) func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
	return func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		if delay > 0 {
			select {
			case <-ctx.Done():
				return system.Results{}, ctx.Err()
			case <-time.After(delay):
			}
		}
		return system.Results{Benchmark: marker}, nil
	}
}

// TestClusterSlowPointRunsOnce: a point whose primary backend is slow is
// waited for, not duplicated — it is simulated exactly once cluster-wide,
// the next backend in the ring never sees it, and it counts as one remote
// point with no retry.
func TestClusterSlowPointRunsOnce(t *testing.T) {
	var slowRuns, fastRuns atomic.Int64
	counted := func(n *atomic.Int64, marker string, delay time.Duration) func(context.Context, config.Config, string, float64) (system.Results, error) {
		run := stubRunner(marker, delay)
		return func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
			n.Add(1)
			return run(ctx, cfg, bench, scale)
		}
	}
	slow := newBackend(t, counted(&slowRuns, "slow", 150*time.Millisecond))
	fast := newBackend(t, counted(&fastRuns, "fast", 0))
	c := sweepClient(t, slow.URL, fast.URL)

	cfg := config.Default()
	scale := shardScales(t, c, cfg, "nn", 0, 1)[0] // primary = slow backend
	key := system.CacheKey(cfg, "nn", scale)
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", scale, func() (system.Results, error) {
		t.Error("local compute ran during a remote-served point")
		return system.Results{}, nil
	})
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if res.Benchmark != "slow" {
		t.Errorf("got result %q, want the primary's %q", res.Benchmark, "slow")
	}
	if slowRuns.Load() != 1 || fastRuns.Load() != 0 {
		t.Errorf("simulations: primary %d, next backend %d; want 1 and 0", slowRuns.Load(), fastRuns.Load())
	}
	if st := c.Stats(); st != (Stats{Remote: 1}) {
		t.Errorf("stats %+v, want exactly one remote point", st)
	}
}

// echoBackend is a raw /run handler that computes the canonical key from the
// shipped config (so the client's key validation passes) and tracks how many
// requests are in flight.
func echoBackend(t *testing.T, marker string, inFlight *atomic.Int64, behave func(r *http.Request) int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		var job serve.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil || job.Config == nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		if code := behave(r); code != http.StatusOK {
			http.Error(w, "injected", code)
			return
		}
		json.NewEncoder(w).Encode(serve.JobResponse{
			Key:     system.CacheKey(*job.Config, job.Benchmark, job.Scale),
			Results: system.Results{Benchmark: marker},
		})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// waitDrained polls until no handler request is in flight and the goroutine
// count has settled back to (at most) its pre-attempt level plus slack.
// Idle keep-alive connections are closed while polling: their read/write
// loops are pooled transport state, not leaked attempt goroutines, and would
// otherwise mask (or mimic) a real leak.
func waitDrained(t *testing.T, c *Client, inFlight *atomic.Int64, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.Close()
		if inFlight.Load() == 0 && runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("attempt not reaped: %d requests in flight, %d goroutines (baseline %d)",
				inFlight.Load(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterFailedAttemptsReaped: when every attempt fails, DoPoint
// consumes each response before moving on — no request or goroutine
// outlives the call — and the point still completes via local fallback.
func TestClusterFailedAttemptsReaped(t *testing.T) {
	var inFlight atomic.Int64
	fail := func(*http.Request) int { return http.StatusInternalServerError }
	b0 := echoBackend(t, "b0", &inFlight, fail)
	b1 := echoBackend(t, "b1", &inFlight, fail)
	c, err := New(Config{
		Backends:    []string{b0.URL, b1.URL},
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	scale := shardScales(t, c, cfg, "nn", 0, 1)[0]
	key := system.CacheKey(cfg, "nn", scale)
	want := system.Results{Benchmark: "local-fallback"}
	baseline := runtime.NumGoroutine()
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", scale, func() (system.Results, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if res.Benchmark != want.Benchmark {
		t.Errorf("result %q, want the local fallback", res.Benchmark)
	}
	waitDrained(t, c, &inFlight, baseline)
	if st := c.Stats(); st.Retries != 1 || st.Fallbacks != 1 || st.Remote != 0 {
		t.Errorf("stats %+v, want two failed attempts degrading to local compute", st)
	}
}

// TestClusterRetries5xx: a transient 503 is retried (with backoff) against
// the same shard and succeeds on the second attempt.
func TestClusterRetries5xx(t *testing.T) {
	b := newBackend(t, stubRunner("ok", 0))
	proxy := chaos.New(b.URL, func(n int, _ *http.Request) chaos.Decision {
		if n == 0 {
			return chaos.Decision{Fault: chaos.Fault5xx}
		}
		return chaos.Decision{}
	})
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)
	c, err := New(Config{
		Backends:    []string{pts.URL},
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	key := system.CacheKey(cfg, "nn", 0.05)
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", 0.05, nil)
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if res.Benchmark != "ok" {
		t.Errorf("result %q, want %q", res.Benchmark, "ok")
	}
	st := c.Stats()
	if st.Remote != 1 || st.Retries != 1 || st.Fallbacks != 0 {
		t.Errorf("stats %+v, want one retried remote point", st)
	}
}

// TestClusterTruncatedResponseFailsOver: a response cut off mid-body (full
// Content-Length, half the bytes) is a failed attempt, not a half-parsed
// result — the point fails over to the next backend.
func TestClusterTruncatedResponseFailsOver(t *testing.T) {
	bad := newBackend(t, stubRunner("bad", 0))
	proxy := chaos.New(bad.URL, func(int, *http.Request) chaos.Decision {
		return chaos.Decision{Fault: chaos.FaultTruncate}
	})
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)
	good := newBackend(t, stubRunner("good", 0))
	c, err := New(Config{
		Backends:    []string{pts.URL, good.URL},
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	scale := shardScales(t, c, cfg, "nn", 0, 1)[0] // primary = truncating backend
	key := system.CacheKey(cfg, "nn", scale)
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", scale, nil)
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if res.Benchmark != "good" {
		t.Errorf("result %q, want failover to %q", res.Benchmark, "good")
	}
	st := c.Stats()
	if st.Remote != 1 || st.Retries != 1 {
		t.Errorf("stats %+v, want one retried remote point", st)
	}
}

// TestClusterEjectionAndReadmission drives the passive health checker end to
// end with an injected clock: a persistently failing backend is ejected
// after FailThreshold consecutive failures (and stops receiving traffic),
// is readmitted on probation once the window passes, and one failed probe
// re-ejects it immediately.
func TestClusterEjectionAndReadmission(t *testing.T) {
	var badHits atomic.Int64
	badTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(badTS.Close)
	good := newBackend(t, stubRunner("good", 0))

	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c, err := New(Config{
		Backends:      []string{badTS.URL, good.URL},
		MaxAttempts:   2,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
		FailThreshold: 2,
		EjectFor:      time.Minute,
		now:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	scales := shardScales(t, c, cfg, "nn", 0, 4) // 4 points owned by the bad backend
	point := func(scale float64) {
		t.Helper()
		key := system.CacheKey(cfg, "nn", scale)
		res, err := c.DoPoint(context.Background(), key, cfg, "nn", scale, nil)
		if err != nil {
			t.Fatalf("DoPoint(scale=%v): %v", scale, err)
		}
		if res.Benchmark != "good" {
			t.Fatalf("result %q, want %q", res.Benchmark, "good")
		}
	}

	// Two points: each tries the bad primary, fails, retries onto good.
	point(scales[0])
	point(scales[1])
	if got := badHits.Load(); got != 2 {
		t.Fatalf("bad backend saw %d requests before ejection, want 2", got)
	}
	if st := c.Stats(); st.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1 after %d consecutive failures", st.Ejections, 2)
	}

	// Third point: the bad backend is ejected, so it gets no traffic at all.
	point(scales[2])
	if got := badHits.Load(); got != 2 {
		t.Fatalf("ejected backend still receiving traffic (%d hits)", got)
	}

	// Window passes: the backend is readmitted on probation, gets exactly one
	// probe, fails it, and is re-ejected without a second chance.
	advance(2 * time.Minute)
	point(scales[3])
	if got := badHits.Load(); got != 3 {
		t.Fatalf("probation should cost exactly one probe: %d hits, want 3", got)
	}
	if st := c.Stats(); st.Ejections != 2 {
		t.Fatalf("ejections = %d, want 2 after the failed probe", st.Ejections)
	}
}

// TestClusterKeyMismatchRejected: a backend answering with a different
// canonical key (encoding-version skew) is rejected — its results are never
// trusted, and the point degrades to local compute.
func TestClusterKeyMismatchRejected(t *testing.T) {
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.JobResponse{
			Key:     strings.Repeat("f00d", 16),
			Results: system.Results{Benchmark: "skewed"},
		})
	}))
	t.Cleanup(skewed.Close)
	c, err := New(Config{
		Backends:    []string{skewed.URL},
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	key := system.CacheKey(cfg, "nn", 0.05)
	want := system.Results{Benchmark: "local"}
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", 0.05, func() (system.Results, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("result %+v; a key-mismatched response must never be served", res)
	}
	st := c.Stats()
	if st.Mismatches != 1 || st.Fallbacks != 1 || st.Remote != 0 {
		t.Errorf("stats %+v, want one mismatch degrading to one local fallback", st)
	}
}
