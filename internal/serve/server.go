package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/fault"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
	"streamfloat/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the result cache backing /run and async jobs (required).
	Store *Store
	// Workers bounds concurrently executing jobs (<= 0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker, /run and async jobs
	// alike; beyond it, new jobs are rejected with 429 (backpressure). <= 0
	// picks 64.
	QueueDepth int
	// JobTimeout caps one job's wall-clock time, /run or async (<= 0 picks
	// 10 minutes).
	JobTimeout time.Duration
	// StallTimeout arms the per-point stall watchdog: a simulation whose
	// event loop stops advancing simulated time for this long is cancelled
	// and fails as a stuck timeout (see fault.Guard). 0 disables the
	// watchdog; panic containment is always on.
	StallTimeout time.Duration
	// Runner executes one /run simulation: it is /run's compute seam, and
	// nothing else calls it. nil picks sample.Run, which dispatches on
	// cfg.Sample — full detailed simulation when sampling is disabled,
	// sampled estimation (Results.Sampled set) when the request carries
	// sampling parameters. Figure jobs compute their points with the
	// sweep's own closure, which also runs sample.Run: the sweep can only
	// tell that a point was computed rather than cached when that closure
	// runs, and its progress (cached counts, est_remaining_ms) depends on
	// it. Tests substitute stubs to hold a worker slot or to exercise
	// queueing, faults and cancellation deterministically.
	Runner func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error)
	// Journal, when non-nil, makes async jobs crash-safe: each job's spec,
	// state transitions and final status are appended to its on-disk
	// journal, and NewServer resumes any unfinished journaled jobs. The
	// Store is the resume state: a resumed job's completed and quarantined
	// points replay from its disk layer, so point the Journal and the Store
	// at durable directories. With a memory-only Store a resumed job
	// recomputes every point, quarantined ones included. nil keeps async
	// jobs in-memory only.
	Journal *Journal
}

// Server is the sfserve HTTP handler: a bounded worker pool over the result
// cache.
//
//	POST /run               JSON JobRequest -> JSON JobResponse (stored Results bytes)
//	POST /jobs              submit an async figure -> 202 {id} (see JobSpec);
//	                        its result is the figure's JSON table
//	GET  /jobs/{id}         async job status + per-point progress
//	GET  /jobs/{id}/result  async job result once done
//	DELETE /jobs/{id}       cancel an async job
//	GET  /healthz           liveness (503 while draining)
//	GET  /metrics           Prometheus text: queue/cache/latency counters
//
// /run and POST /jobs share one admission path (admit, then execute): a
// queue ticket held from admission to completion, one worker slot, one
// timeout rule. A /run runs under its request context plus that timeout,
// so a client disconnect or deadline cancels the simulation mid-flight (the
// event loop polls cancellation once per 6-cycle quantum).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan struct{} // queued-or-running tickets; full = 429
	work  chan struct{} // running tickets

	// base parents every async job's context; kill cancels it (crash
	// emulation / abrupt stop — see Kill).
	base context.Context
	kill context.CancelFunc

	jobsMu sync.Mutex
	jobs   map[string]*job
	jobsWG sync.WaitGroup

	queued         atomic.Int64
	running        atomic.Int64
	done           atomic.Uint64
	rejected       atomic.Uint64
	failed         atomic.Uint64
	asyncSubmitted atomic.Uint64
	asyncResumed   atomic.Uint64
	journalErrs    atomic.Uint64
	draining       atomic.Bool

	// origins counts job submissions (/run and POST /jobs) per requesting
	// origin — the X-SF-Origin header a cluster client stamps on its
	// requests, "direct" when absent — so operators can attribute backend
	// load to sweeps.
	originMu sync.Mutex
	origins  map[string]uint64

	lat latencyWindow
}

// OriginHeader names the request header carrying the client's origin label
// for the per-origin /metrics counters (cluster.Client stamps it).
const OriginHeader = "X-SF-Origin"

// recordOrigin attributes one job submission to its origin.
func (s *Server) recordOrigin(r *http.Request) {
	origin := r.Header.Get(OriginHeader)
	if origin == "" {
		origin = "direct"
	}
	s.originMu.Lock()
	if s.origins == nil {
		s.origins = map[string]uint64{}
	}
	s.origins[origin]++
	s.originMu.Unlock()
}

// originCounts snapshots the per-origin counters in sorted order.
func (s *Server) originCounts() ([]string, []uint64) {
	s.originMu.Lock()
	names := make([]string, 0, len(s.origins))
	for o := range s.origins {
		names = append(names, o)
	}
	sort.Strings(names)
	counts := make([]uint64, len(names))
	for i, o := range names {
		counts[i] = s.origins[o]
	}
	s.originMu.Unlock()
	return names, counts
}

// NewServer wires the handler. It panics if cfg.Store is nil.
func NewServer(cfg Config) *Server {
	if cfg.Store == nil {
		panic("serve: Config.Store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.Runner == nil {
		cfg.Runner = sample.Run
	}
	base, kill := context.WithCancel(context.Background())
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		queue: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		work:  make(chan struct{}, cfg.Workers),
		base:  base,
		kill:  kill,
		jobs:  map[string]*job{},
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Journal != nil {
		s.resumeJournal()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips the server into draining mode: /healthz turns 503 (so load
// balancers stop routing here) and new jobs are rejected, while in-flight
// jobs finish. cmd/sfserve calls it on SIGTERM before http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// JobRequest is the POST /run body. Exactly one simulation point: a named
// §VI system on a core kind — or, for sweep points the named systems cannot
// express (mutated link widths, mesh sizes, interleavings...), a full
// explicit Config — plus one benchmark and one dataset scale.
type JobRequest struct {
	System    string  `json:"system"`               // Base, Stride, Bingo, SS, SF, SF-Aff, SF-Ind (default Base)
	Core      string  `json:"core"`                 // IO4, OOO4, OOO8 (default OOO8)
	Benchmark string  `json:"benchmark"`            // required; see workload.Names
	Scale     float64 `json:"scale"`                // dataset scale (0 = 0.25; negative is rejected)
	Sanitize  string  `json:"sanitize,omitempty"`   // auto, on, off (default auto)
	TimeoutMS int64   `json:"timeout_ms,omitempty"` // per-job cap below the server default

	// Config, when set, is the full machine configuration to simulate,
	// verbatim (System, Core and Sanitize are ignored). This is how
	// cluster clients ship arbitrary sweep points; the config is validated
	// before running.
	Config *config.Config `json:"config,omitempty"`

	// Sample, when set, selects sampled simulation for the point: the
	// result is an interval-sampled estimate instead of an exact run, under
	// its own cache key. It overrides Config.Sample when both are present.
	Sample *config.SampleParams `json:"sample,omitempty"`
}

// JobResponse is the POST /run reply. A failed /run is an HTTP error
// instead (422 with the PointError for a poisoned point).
type JobResponse struct {
	Key       string         `json:"key"`        // canonical cache key of the point
	Cached    bool           `json:"cached"`     // served without running a simulation
	ElapsedMS float64        `json:"elapsed_ms"` // wall-clock job time
	Results   system.Results `json:"results"`
}

// resolve turns a JobRequest into a runnable configuration, benchmark and
// dataset scale.
func (r JobRequest) resolve() (config.Config, string, float64, error) {
	var cfg config.Config
	if r.Config != nil {
		cfg = *r.Config
		if err := cfg.Validate(); err != nil {
			return config.Config{}, "", 0, err
		}
	} else {
		sys := r.System
		if sys == "" {
			sys = "Base"
		}
		coreName := r.Core
		if coreName == "" {
			coreName = "OOO8"
		}
		core, err := config.ParseCore(coreName)
		if err != nil {
			return config.Config{}, "", 0, err
		}
		cfg, err = config.ForSystem(sys, core)
		if err != nil {
			return config.Config{}, "", 0, err
		}
		if r.Sanitize != "" {
			mode, err := sanitize.ParseMode(r.Sanitize)
			if err != nil {
				return config.Config{}, "", 0, err
			}
			cfg.Sanitize = mode
		}
	}
	if r.Sample != nil {
		if err := r.Sample.Validate(); err != nil {
			return config.Config{}, "", 0, err
		}
		cfg.Sample = *r.Sample
	}
	if r.Benchmark == "" {
		return config.Config{}, "", 0, fmt.Errorf("benchmark is required (valid: %s)", strings.Join(workload.Names(), ", "))
	}
	if !workload.Valid(r.Benchmark) {
		return config.Config{}, "", 0, fmt.Errorf("unknown benchmark %q (valid: %s)", r.Benchmark, strings.Join(workload.Names(), ", "))
	}
	scale := r.Scale
	switch {
	case scale < 0:
		return config.Config{}, "", 0, fmt.Errorf("bad scale %v", scale)
	case scale == 0:
		scale = 0.25
	}
	return cfg, r.Benchmark, scale, nil
}

// admit claims a queue ticket for a new /run or POST /jobs job, without
// waiting: 503 while draining and 429 when Workers+QueueDepth jobs are
// already queued or running, both counted in sfserve_jobs_rejected. It
// writes the rejection itself and reports whether the job was admitted;
// an admitted job must then go through execute, which gives the ticket back.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		s.rejected.Add(1)
		return false
	}
	select {
	case s.queue <- struct{}{}:
		return true
	default:
		http.Error(w, "queue full", http.StatusTooManyRequests)
		s.rejected.Add(1)
		return false
	}
}

// execute runs one job through its queue ticket and a worker slot. A job
// resumed from the journal was accepted before the crash, so it skipped
// admit and waits here for its ticket. fn runs under ctx plus the job's
// timeout: the smaller of JobTimeout and timeoutMS, when that is set. A
// job whose ctx ends before it gets a worker fails with ctx's error
// without running fn. execute alone moves the queued and running gauges,
// the done and failed counters and the latency window.
func (s *Server) execute(ctx context.Context, resumed bool, timeoutMS int64, fn func(context.Context) error) error {
	s.queued.Add(1)
	ok := !resumed || take(ctx, s.queue)
	if ok {
		defer func() { <-s.queue }()
		ok = take(ctx, s.work)
	}
	s.queued.Add(-1)
	if !ok {
		s.failed.Add(1)
		return ctx.Err()
	}
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.work
	}()

	timeout := s.cfg.JobTimeout
	if d := time.Duration(timeoutMS) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	start := time.Now()
	if err := fn(ctx); err != nil {
		s.failed.Add(1)
		return err
	}
	s.done.Add(1)
	s.lat.record(time.Since(start).Seconds())
	return nil
}

// take claims a ticket of sem, or reports false once ctx ends.
func take(ctx context.Context, sem chan struct{}) bool {
	select {
	case sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.recordOrigin(r)
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg, bench, scale, err := req.resolve()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.admit(w) {
		return
	}
	var resp JobResponse
	var e *entry
	err = s.execute(r.Context(), false, req.TimeoutMS, func(ctx context.Context) (err error) {
		resp, e, err = s.runPoint(ctx, cfg, bench, scale)
		if err == nil && e.enc == nil {
			err = fmt.Errorf("results of %s do not encode as JSON", resp.Key)
		}
		return err
	})
	if err != nil {
		if pe, ok := fault.As(err); ok {
			if pe.Deterministic() {
				// Poisoned point: the failure is a property of the key, not of
				// this execution. 422 tells clients not to retry or fail over;
				// the Store has quarantined the key, so re-requests replay this
				// same typed error without simulating.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusUnprocessableEntity)
				enc := json.NewEncoder(w)
				enc.SetEscapeHTML(false)
				enc.Encode(pe.Served())
				return
			}
			if pe.Kind == fault.KindTimeout {
				http.Error(w, err.Error(), http.StatusGatewayTimeout)
				return
			}
		}
		status := http.StatusInternalServerError
		if isCtxErr(err) {
			// 504 for our timeout; the client-disconnect case never reads it.
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeRun(w, resp, e.enc)
}

// maxBodyBytes bounds a POST /run or POST /jobs request body.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
// It answers 413 for a larger body and 400 for a malformed one, and
// reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	}
	return err == nil
}

// writeRun writes a /run reply: resp's leading fields, then the point's
// stored Results bytes verbatim. The body is byte-identical to
// writeJSON(resp) with resp.Results filled in (TestRunBodyOracle), but the
// Results are neither decoded nor re-encoded, nor even copied. The head is
// spelled out by hand, which matches encoding/json because the key is a
// system.CacheKey hex digest (nothing to escape) and ElapsedMS, whole
// microseconds in milliseconds, is 0 or at least 1e-3, where encoding/json
// writes a float64 in strconv's shortest 'f' form.
func writeRun(w http.ResponseWriter, resp JobResponse, results []byte) {
	head := make([]byte, 0, 128)
	head = append(head, `{"key":"`...)
	head = append(head, resp.Key...)
	head = append(head, `","cached":`...)
	head = strconv.AppendBool(head, resp.Cached)
	head = append(head, `,"elapsed_ms":`...)
	head = strconv.AppendFloat(head, resp.ElapsedMS, 'f', -1, 64)
	head = append(head, `,"results":`...)
	const tail = "}\n"
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(results)+len(tail)))
	w.Write(head)
	w.Write(results)
	io.WriteString(w, tail)
}

// runPoint computes one resolved /run point through the Store's lookup,
// simulating with Config.Runner under the fault guard: panics become
// structured PointErrors (keeping the serving process up), and with
// Config.StallTimeout set the stall watchdog kills points whose event loop
// stops advancing simulated time. The Store quarantines and counts those
// faults. The response carries the key, cached flag and elapsed time, even
// on error, but not the Results: those are in the entry, whose encoded
// bytes /run splices.
func (s *Server) runPoint(ctx context.Context, cfg config.Config, bench string, scale float64) (JobResponse, *entry, error) {
	key := system.CacheKey(cfg, bench, scale)
	start := time.Now()
	computed := false
	e, err := s.cfg.Store.lookup(ctx, key, func() (system.Results, error) {
		computed = true
		var res system.Results
		err := fault.Guard(ctx, key, s.cfg.StallTimeout, 0, func(ctx context.Context) (err error) {
			res, err = s.cfg.Runner(ctx, cfg, bench, scale)
			return err
		})
		return res, err
	})
	return JobResponse{
		Key:       key,
		Cached:    err == nil && !computed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	}, e, err
}

// runFigure regenerates a figure job's figure through the Store (with the
// sweep's own compute, see Config.Runner), under the server's stall
// watchdog, mirroring the sweep's progress into the job's status.
func (s *Server) runFigure(ctx context.Context, j *job) (*experiments.Table, error) {
	fs := j.spec.Figure
	fn, ok := experiments.ByName(fs.ID)
	if !ok {
		return nil, fmt.Errorf("unknown figure %q", fs.ID)
	}
	opts := experiments.Options{
		Scale:        0.25,
		Benchmarks:   fs.Benchmarks,
		Cache:        s.cfg.Store,
		Sanitize:     sanitize.ModeOff,
		Context:      ctx,
		KeepGoing:    j.spec.KeepGoing,
		StallTimeout: s.cfg.StallTimeout,
		Progress: func(ev experiments.ProgressEvent) {
			j.mu.Lock()
			j.progress = JobProgress{
				Total:          ev.Total,
				Started:        ev.Started,
				Completed:      ev.Completed,
				Cached:         ev.Cached,
				Failed:         ev.Failed,
				EstRemainingMS: float64(ev.EstRemaining.Microseconds()) / 1e3,
			}
			j.mu.Unlock()
		},
	}
	if fs.Scale > 0 {
		opts.Scale = fs.Scale
	}
	if fs.Sample != nil {
		opts.Sample = *fs.Sample
	}
	return fn(opts)
}

// Health is the GET /healthz payload. Status "degraded" means the process
// is serving but has contained faults: panics converted to typed errors,
// watchdog kills, or quarantined points. Load balancers key on the HTTP
// status (200 serving, 503 draining); the payload is for operators.
type Health struct {
	Status            string `json:"status"` // ok | degraded
	Panics            uint64 `json:"panics,omitempty"`
	WatchdogKills     uint64 `json:"watchdog_kills,omitempty"`
	PointsQuarantined int    `json:"points_quarantined,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	cs := s.cfg.Store.Stats()
	h := Health{
		Status:            "ok",
		Panics:            cs.Panics,
		WatchdogKills:     cs.WatchdogKills,
		PointsQuarantined: cs.Poisoned,
	}
	if h.Panics > 0 || h.WatchdogKills > 0 || h.PointsQuarantined > 0 {
		h.Status = "degraded"
	}
	writeJSON(w, h)
}

// handleMetrics emits Prometheus text exposition (also human-greppable).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cfg.Store.Stats()
	p50, p99 := s.lat.percentiles()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	gauge := func(name string, v int64, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("sfserve_jobs_queued", s.queued.Load(), "jobs waiting for a worker")
	gauge("sfserve_jobs_running", s.running.Load(), "jobs currently simulating")
	counter("sfserve_jobs_done", s.done.Load(), "jobs completed successfully")
	counter("sfserve_jobs_failed", s.failed.Load(), "jobs failed or cancelled")
	counter("sfserve_jobs_rejected", s.rejected.Load(), "jobs rejected by backpressure or drain")
	counter("sfserve_async_jobs_submitted", s.asyncSubmitted.Load(), "async jobs accepted via POST /jobs")
	counter("sfserve_async_jobs_resumed", s.asyncResumed.Load(), "async jobs resumed from the journal at startup")
	counter("sfserve_journal_errors", s.journalErrs.Load(), "failed best-effort journal operations")
	counter("sfserve_cache_hits", cs.Hits, "results served from the in-memory cache")
	counter("sfserve_cache_disk_hits", cs.DiskHits, "results served from the on-disk cache")
	counter("sfserve_cache_misses", cs.Misses, "results computed by simulation")
	counter("sfserve_cache_dedups", cs.Dedups, "requests that shared another caller's simulation")
	counter("sfserve_cache_disk_errors", cs.DiskErrs, "failed best-effort disk cache operations")
	gauge("sfserve_cache_entries", int64(cs.Entries), "in-memory cache entries")
	counter("sfserve_panics_total", cs.Panics, "simulator panics contained and converted to typed errors")
	counter("sfserve_watchdog_kills_total", cs.WatchdogKills, "points killed by the stall watchdog")
	gauge("sfserve_points_quarantined", int64(cs.Poisoned), "quarantine negative entries (deterministic point failures)")
	counter("sfserve_cache_poison_hits", cs.PoisonHits, "failures replayed from quarantine entries instead of recomputing")
	origins, counts := s.originCounts()
	if len(origins) > 0 {
		fmt.Fprintf(&b, "# HELP sfserve_requests_total job submissions by origin (%s header; \"direct\" when absent)\n", OriginHeader)
		fmt.Fprintf(&b, "# TYPE sfserve_requests_total counter\n")
		for i, o := range origins {
			fmt.Fprintf(&b, "sfserve_requests_total{origin=%q} %d\n", o, counts[i])
		}
	}
	fmt.Fprintf(&b, "# HELP sfserve_job_latency_seconds job wall-clock latency quantiles over the last %d jobs\n", latWindow)
	fmt.Fprintf(&b, "# TYPE sfserve_job_latency_seconds summary\n")
	fmt.Fprintf(&b, "sfserve_job_latency_seconds{quantile=\"0.5\"} %g\n", p50)
	fmt.Fprintf(&b, "sfserve_job_latency_seconds{quantile=\"0.99\"} %g\n", p99)
	w.Write([]byte(b.String()))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// latWindow is how many recent job latencies feed the /metrics quantiles.
const latWindow = 512

// latencyWindow keeps a bounded ring of recent job latencies for the p50/p99
// gauges. Exact percentiles over a sliding window are plenty at service
// request rates; no streaming sketch needed.
type latencyWindow struct {
	mu   sync.Mutex
	ring [latWindow]float64
	n    int // total recorded (ring holds min(n, latWindow))
}

func (l *latencyWindow) record(seconds float64) {
	l.mu.Lock()
	l.ring[l.n%latWindow] = seconds
	l.n++
	l.mu.Unlock()
}

// percentiles reports the p50/p99 over the recorded window: (0, 0) before
// the first job, the single sample for both when only one exists. Quantile
// extraction sorts a copy snapshotted under the lock — never the live ring,
// which concurrent record calls keep mutating. Ranks are nearest-rank
// (ceil(q*n)), so p99 reports the window maximum until the 100th sample
// instead of understating the tail (truncating q*(n-1) picks the minimum of
// a two-sample window for every quantile).
func (l *latencyWindow) percentiles() (p50, p99 float64) {
	l.mu.Lock()
	n := l.n
	if n > latWindow {
		n = latWindow
	}
	vals := make([]float64, n)
	copy(vals, l.ring[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return vals[i]
	}
	return at(0.5), at(0.99)
}
