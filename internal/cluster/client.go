package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/fault"
	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

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

	// FailThreshold is how many consecutive failures eject a backend
	// (<= 0 picks 3); EjectFor is how long it stays ejected before being
	// readmitted on probation (<= 0 picks 15s).
	FailThreshold int
	EjectFor      time.Duration

	// Local, when non-nil, handles local fallback computes (and plain Do
	// calls) — typically a *serve.Store so even degraded points are cached.
	// nil falls back to computing without caching.
	Local experiments.ResultCache

	// Origin is the serve.OriginHeader value stamped on every request, so
	// sfserve's per-origin /metrics counters tell which sweeps load a
	// backend ("" picks "sfexp").
	Origin string

	// now is an injectable clock for health-state tests. nil = time.Now.
	now func() time.Time
}

// Client shards simulation points across sfserve backends by consistent-
// hashing their canonical cache keys. It implements experiments.ResultCache
// and experiments.PointCache; the sweep machinery calls DoPoint with the
// full simulation point, which is what a remote backend needs to compute it.
//
// A point reaches a backend one way: one blocking POST /run at a time, in
// the key's failover order. No copy of a point is ever in flight on two
// backends, so on a healthy cluster a cold sweep simulates every point
// exactly once.
//
// All methods are safe for concurrent use.
type Client struct {
	cfg      Config
	backends []string // normalized base URLs, index-aligned with the ring
	ring     *ring
	health   *health
	http     *http.Client

	remote     atomic.Uint64 // points served by a backend
	retries    atomic.Uint64 // extra attempts after a failed one
	mismatches atomic.Uint64 // responses whose key did not match (version skew)
	fallbacks  atomic.Uint64 // points degraded to local compute
	poisoned   atomic.Uint64 // points rejected as quarantined by a backend
}

// Stats is a snapshot of the client's counters.
type Stats struct {
	Remote  uint64 `json:"remote"`  // points served by a backend
	Retries uint64 `json:"retries"` // failed attempts that were retried
	// Hedges and HedgeWins are always 0: the client sends no duplicate
	// requests. They stay for readers of the old hedging counters.
	Hedges     uint64 `json:"hedges"`
	HedgeWins  uint64 `json:"hedge_wins"`
	Mismatches uint64 `json:"mismatches"` // key-mismatched responses (skew)
	Fallbacks  uint64 `json:"fallbacks"`  // points degraded to local compute
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

// Stats snapshots the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		Remote:     c.remote.Load(),
		Retries:    c.retries.Load(),
		Mismatches: c.mismatches.Load(),
		Fallbacks:  c.fallbacks.Load(),
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
		backend := avail[attempt%len(avail)]
		res, err := c.runRemote(ctx, backend, key, job)
		switch {
		case err == nil:
			c.health.success(backend)
			c.remote.Add(1)
			return res, nil
		case fault.IsPoisoned(err):
			// A quarantined point is an authoritative negative answer from a
			// healthy backend: the simulation deterministically panics or
			// trips a sanitizer violation, so retrying, failing over, or
			// recomputing locally would just reproduce the crash.
			c.health.success(backend)
			c.poisoned.Add(1)
			return system.Results{}, err
		case ctx.Err() != nil:
			// The caller gave up; that says nothing about the backend.
			return system.Results{}, ctx.Err()
		}
		c.health.failure(backend)
	}
	// The shard — or the whole cluster — is down: degrade to computing the
	// point in-process so the sweep still completes.
	c.fallbacks.Add(1)
	if c.cfg.Local != nil {
		return c.cfg.Local.Do(ctx, key, compute)
	}
	return compute()
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
	req.Header.Set(serve.OriginHeader, c.cfg.Origin)
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
