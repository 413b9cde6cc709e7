package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/fault"
	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

// OriginHeader names the HTTP header carrying the client's origin label.
// sfserve counts requests per origin under /metrics, so operators can tell
// which sweeps (or which machines) are loading a backend.
const OriginHeader = "X-SF-Origin"

// Config parameterizes a Client.
type Config struct {
	// Backends are the sfserve base addresses ("host:port" or full URLs).
	// At least one is required.
	Backends []string

	// HTTPClient overrides the transport (tests inject httptest clients).
	// nil uses a dedicated default client.
	HTTPClient *http.Client

	// RequestTimeout caps one remote attempt (<= 0 picks 5 minutes). A
	// client-side timeout also cancels the backend's job: sfserve runs every
	// job under the request context, so abandoning the connection aborts the
	// simulation at its next event-loop poll.
	RequestTimeout time.Duration

	// MaxAttempts bounds remote tries per point across backends, including
	// the first (<= 0 picks 3). Retries walk the key's failover order with
	// exponential backoff + jitter; exhausting them degrades to local
	// compute.
	MaxAttempts int

	// BaseBackoff seeds the exponential retry backoff (<= 0 picks 50ms);
	// MaxBackoff caps it (<= 0 picks 2s). Each retry waits
	// min(Base<<n, Max) plus up to 50% jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// HedgeDelay controls tail-latency hedging: after this long without a
	// response, a second copy of the request is sent to the next backend in
	// the key's failover order and the first usable answer wins. 0 adapts
	// the delay to the observed p99 of recent successful requests (clamped
	// to [20ms, 5s]; until enough samples exist the maximum is used);
	// a negative value disables hedging.
	HedgeDelay time.Duration

	// FailThreshold is how many consecutive failures eject a backend
	// (<= 0 picks 3); EjectFor is how long it stays ejected before being
	// readmitted on probation (<= 0 picks 15s).
	FailThreshold int
	EjectFor      time.Duration

	// AsyncThreshold selects when points are driven through the backend's
	// async job API (POST /jobs, then status polling with backoff, then the
	// result fetch) instead of one blocking POST /run: once the observed
	// p99 of recent successful requests exceeds the threshold, subsequent
	// points go async — long simulations then survive proxy idle timeouts
	// and report per-point progress, while small jobs keep the cheap
	// synchronous path. 0 picks 30s; negative disables the async path.
	// Async attempts are never hedged (a hedge would run the whole
	// simulation twice on two backends).
	AsyncThreshold time.Duration

	// PollInterval seeds the async status-polling cadence (<= 0 picks
	// 250ms); successive polls back off 1.5x up to PollMax (<= 0 picks 5s).
	PollInterval time.Duration
	PollMax      time.Duration

	// Local, when non-nil, handles local fallback computes (and plain Do
	// calls) — typically a *serve.Store so even degraded points are cached.
	// nil falls back to computing without caching.
	Local experiments.ResultCache

	// Origin is the OriginHeader value stamped on every request
	// ("" picks "sfexp").
	Origin string

	// now is an injectable clock for health-state tests. nil = time.Now.
	now func() time.Time
}

// Client shards simulation points across sfserve backends by consistent-
// hashing their canonical cache keys. It implements experiments.ResultCache
// and experiments.PointCache; the sweep machinery calls DoPoint with the
// full simulation point, which is what a remote backend needs to compute it.
//
// All methods are safe for concurrent use.
type Client struct {
	cfg      Config
	backends []string // normalized base URLs, index-aligned with the ring
	ring     *ring
	health   *health
	http     *http.Client

	lat latencyWindow

	remote     atomic.Uint64 // points served by a backend
	retries    atomic.Uint64 // extra attempts after a failed one
	hedges     atomic.Uint64 // hedge requests launched
	hedgeWins  atomic.Uint64 // points won by the hedge copy
	mismatches atomic.Uint64 // responses whose key did not match (version skew)
	fallbacks  atomic.Uint64 // points degraded to local compute
	asyncJobs  atomic.Uint64 // points driven through the async job API
	poisoned   atomic.Uint64 // points rejected as quarantined by a backend
}

// Stats is a snapshot of the client's counters.
type Stats struct {
	Remote     uint64 `json:"remote"`     // points served by a backend
	Retries    uint64 `json:"retries"`    // failed attempts that were retried
	Hedges     uint64 `json:"hedges"`     // hedge requests launched
	HedgeWins  uint64 `json:"hedge_wins"` // points won by the hedge copy
	Mismatches uint64 `json:"mismatches"` // key-mismatched responses (skew)
	Fallbacks  uint64 `json:"fallbacks"`  // points degraded to local compute
	AsyncJobs  uint64 `json:"async_jobs"` // points driven via the async job API
	Poisoned   uint64 `json:"poisoned"`   // points rejected as quarantined
	Ejections  uint64 `json:"ejections"`  // backend ejection events
}

// New builds a Client over the given backends. Addresses may omit the
// scheme ("localhost:8080"); https URLs are passed through.
func New(cfg Config) (*Client, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.EjectFor <= 0 {
		cfg.EjectFor = 15 * time.Second
	}
	if cfg.AsyncThreshold == 0 {
		cfg.AsyncThreshold = 30 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.PollMax <= 0 {
		cfg.PollMax = 5 * time.Second
	}
	if cfg.Origin == "" {
		cfg.Origin = "sfexp"
	}
	backends := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return nil, fmt.Errorf("cluster: backend %d is empty", i)
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		u, err := url.Parse(b)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad backend address %q", cfg.Backends[i])
		}
		backends[i] = b
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	return &Client{
		cfg:      cfg,
		backends: backends,
		ring:     newRing(backends),
		health:   newHealth(len(backends), cfg.FailThreshold, cfg.EjectFor, cfg.now),
		http:     httpc,
	}, nil
}

// Backends returns the normalized backend base URLs, in ring index order.
func (c *Client) Backends() []string { return append([]string(nil), c.backends...) }

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Remote:     c.remote.Load(),
		Retries:    c.retries.Load(),
		Hedges:     c.hedges.Load(),
		HedgeWins:  c.hedgeWins.Load(),
		Mismatches: c.mismatches.Load(),
		Fallbacks:  c.fallbacks.Load(),
		AsyncJobs:  c.asyncJobs.Load(),
		Poisoned:   c.poisoned.Load(),
		Ejections:  c.health.ejectionCount(),
	}
}

// Close releases idle transport connections.
func (c *Client) Close() { c.http.CloseIdleConnections() }

// Do satisfies experiments.ResultCache for callers that only have an opaque
// key. Without the full simulation point a backend cannot compute the
// result, so Do runs locally (through the local cache when configured).
func (c *Client) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	if c.cfg.Local != nil {
		return c.cfg.Local.Do(ctx, key, compute)
	}
	return compute()
}

// DoPoint routes one simulation point to its shard's backend, failing over
// around the ring and finally degrading to local compute. It satisfies
// experiments.PointCache.
func (c *Client) DoPoint(ctx context.Context, key string, cfg config.Config, bench string, scale float64, compute func() (system.Results, error)) (system.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// cfg.Workers and cfg.Sanitize ride along verbatim: both are outside the
	// canonical key, so the backend runs the same simulation however many
	// shard workers drive it and whatever an "auto" sanitizer resolves to
	// over there (see serve.JobRequest.Workers for per-backend overrides).
	job := serve.JobRequest{Config: &cfg, Benchmark: bench, Scale: scale}

	order := c.ring.successors(key)
	avail := order[:0:0]
	for _, b := range order {
		if c.health.available(b) {
			avail = append(avail, b)
		}
	}
	for attempt := 0; len(avail) > 0 && attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
				return system.Results{}, err
			}
		}
		primary := avail[attempt%len(avail)]
		hedge := -1
		if len(avail) > 1 {
			hedge = avail[(attempt+1)%len(avail)]
		}
		res, err := c.attempt(ctx, primary, hedge, key, job)
		if err == nil {
			c.remote.Add(1)
			return res, nil
		}
		// A quarantined point is an authoritative negative answer, not a
		// backend failure: the simulation deterministically panics or trips a
		// sanitizer violation, so retrying, failing over, or recomputing
		// locally would just reproduce the crash (and, for a local fallback,
		// take down this process's sweep worker's budget for nothing).
		if fault.IsPoisoned(err) {
			c.poisoned.Add(1)
			return system.Results{}, err
		}
		if ctx.Err() != nil {
			return system.Results{}, ctx.Err()
		}
	}
	// The shard — or the whole cluster — is down: degrade to computing the
	// point in-process so the sweep still completes.
	c.fallbacks.Add(1)
	if c.cfg.Local != nil {
		return c.cfg.Local.Do(ctx, key, compute)
	}
	return compute()
}

// outcome is one remote attempt's result, tagged with its backend and
// whether it was the hedge copy.
type outcome struct {
	res     system.Results
	err     error
	backend int
	hedged  bool
}

// attempt sends the job to primary and, if no response arrives within the
// hedge delay, a second copy to hedgeTo (-1 disables). The first usable
// response wins; the loser is cancelled AND reaped — attempt does not return
// until every launched request has delivered its outcome, so no goroutine
// (or the HTTP connection its round trip holds) outlives the attempt. A
// reaped loser's health outcome is not recorded, since a cancellation we
// initiated says nothing about the backend.
//
// Points routed through the async job API skip hedging entirely: a hedge
// copy of an async job would journal and run the whole simulation twice.
func (c *Client) attempt(ctx context.Context, primary, hedgeTo int, key string, job serve.JobRequest) (system.Results, error) {
	if c.useAsync() {
		res, err := c.runRemoteAsync(ctx, primary, key, job)
		switch {
		case err == nil:
			c.health.success(primary)
		case fault.IsPoisoned(err):
			// A typed quarantine response is the backend answering
			// authoritatively, not failing: it counts as a healthy response.
			c.health.success(primary)
		case ctx.Err() == nil || !isCtxErr(err):
			c.health.failure(primary)
		}
		if err != nil && !fault.IsPoisoned(err) {
			err = fmt.Errorf("backend %s: %w", c.backends[primary], err)
		}
		return res, err
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	send := func(backend int, hedged bool) {
		res, err := c.runRemote(actx, backend, key, job)
		ch <- outcome{res: res, err: err, backend: backend, hedged: hedged}
	}
	go send(primary, false)

	inFlight := 1
	var hedgeTimer <-chan time.Time
	if hedgeTo >= 0 && c.cfg.HedgeDelay >= 0 {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeTimer = t.C
	}
	var firstErr error
	for inFlight > 0 {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			c.hedges.Add(1)
			inFlight++
			go send(hedgeTo, true)
		case o := <-ch:
			inFlight--
			if o.err == nil || fault.IsPoisoned(o.err) {
				// A quarantined point is as authoritative as a result: the
				// backend answered definitively, so it counts as healthy and
				// any in-flight hedge copy is cancelled and reaped just like
				// after a win — without the drain the loser's goroutine (and
				// the connection its round trip holds) would linger past the
				// attempt, unobserved.
				c.health.success(o.backend)
				if o.err == nil && o.hedged {
					c.hedgeWins.Add(1)
				}
				cancel()
				for inFlight > 0 {
					<-ch
					inFlight--
				}
				return o.res, o.err
			}
			// Don't hold a backend accountable for a cancellation we (or
			// the caller) initiated.
			if actx.Err() == nil || !isCtxErr(o.err) {
				c.health.failure(o.backend)
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("backend %s: %w", c.backends[o.backend], o.err)
			}
		}
	}
	return system.Results{}, firstErr
}

// runRemote performs one POST /run against a backend and validates the
// response's canonical key against the one this client computed — a
// mismatch means the backend runs a different canonical encoding (version
// skew) and its results cannot be trusted for this key.
func (c *Client) runRemote(ctx context.Context, backend int, key string, job serve.JobRequest) (system.Results, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	body, err := json.Marshal(job)
	if err != nil {
		return system.Results{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.backends[backend]+"/run", bytes.NewReader(body))
	if err != nil {
		return system.Results{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(OriginHeader, c.cfg.Origin)
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return system.Results{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnprocessableEntity {
		// The backend quarantined this point: its body is the structured
		// fault record. Surface it typed so DoPoint knows not to retry, fail
		// over, or recompute a simulation that deterministically crashes.
		if pe := decodePoison(resp.Body, key); pe != nil {
			return system.Results{}, pe
		}
		return system.Results{}, fmt.Errorf("status %d: malformed quarantine response", resp.StatusCode)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return system.Results{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var jr serve.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return system.Results{}, fmt.Errorf("decoding response: %w", err)
	}
	if jr.Key != key {
		c.mismatches.Add(1)
		return system.Results{}, fmt.Errorf("canonical key mismatch (got %.16s…, want %.16s…): backend runs a different encoding version", jr.Key, key)
	}
	c.lat.record(time.Since(start))
	return jr.Results, nil
}

// decodePoison parses a backend's 422 quarantine body into a typed
// *fault.PointError. nil means the body is not a valid deterministic fault
// record (version skew, an intermediary rewriting the body) and the caller
// should fall back to a generic status error — which stays retryable, the
// safe direction to fail in.
func decodePoison(body io.Reader, key string) *fault.PointError {
	var pe fault.PointError
	if err := json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&pe); err != nil {
		return nil
	}
	if !pe.Kind.Deterministic() {
		return nil
	}
	pe.Quarantined = true
	if pe.Key == "" {
		pe.Key = key
	}
	return &pe
}

// backoff computes the pre-retry wait: exponential from BaseBackoff, capped
// at MaxBackoff, plus up to 50% uniform jitter so synchronized retries from
// a wide sweep don't stampede a recovering backend.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	return d + time.Duration(rand.Int64N(int64(d)/2+1))
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sleepCtx waits for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Hedge-delay bounds: the adaptive p99 is clamped into [hedgeMinDelay,
// hedgeMaxDelay], and until hedgeMinSamples successful requests have been
// observed the maximum is used (hedging conservatively while cold).
const (
	hedgeMinDelay   = 20 * time.Millisecond
	hedgeMaxDelay   = 5 * time.Second
	hedgeMinSamples = 8
)

// hedgeDelay resolves the configured hedge policy to a concrete delay.
func (c *Client) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	d, n := c.lat.p99()
	if n < hedgeMinSamples {
		return hedgeMaxDelay
	}
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		d = hedgeMaxDelay
	}
	return d
}

// latWindow is how many recent successful request latencies feed the
// adaptive hedge delay.
const latWindow = 256

// latencyWindow is a bounded ring of recent request latencies; p99 over a
// sliding window is plenty for a hedge trigger.
type latencyWindow struct {
	mu   sync.Mutex
	ring [latWindow]time.Duration
	n    int
}

func (l *latencyWindow) record(d time.Duration) {
	l.mu.Lock()
	l.ring[l.n%latWindow] = d
	l.n++
	l.mu.Unlock()
}

// p99 returns the 99th-percentile latency over the window and the number of
// samples recorded so far. The rank is nearest-rank (ceil(q*n)) over a
// sorted copy snapshotted under the lock: truncating q*(n-1) would pick the
// window minimum for small n and understate the tail the hedge delay (and
// the async-path switch) key off.
func (l *latencyWindow) p99() (time.Duration, int) {
	l.mu.Lock()
	n := l.n
	if n > latWindow {
		n = latWindow
	}
	vals := make([]time.Duration, n)
	copy(vals, l.ring[:n])
	total := l.n
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	i := int(math.Ceil(0.99*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return vals[i], total
}
