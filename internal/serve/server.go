package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
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
	// Store is the result cache backing /run and /figure (required).
	Store *Store
	// Workers bounds concurrently executing jobs (<= 0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; beyond it, new jobs are
	// rejected with 429 (backpressure). <= 0 picks 64.
	QueueDepth int
	// JobTimeout caps one job's wall-clock time (<= 0 picks 10 minutes).
	JobTimeout time.Duration
	// StallTimeout arms the per-point stall watchdog: a simulation whose
	// event loop stops advancing simulated time for this long is cancelled
	// and fails as a stuck timeout (see fault.Guard). 0 disables the
	// watchdog; panic containment is always on.
	StallTimeout time.Duration
	// Runner executes one /run or points-job simulation. nil picks
	// sample.Run, which dispatches on cfg.Sample — full detailed simulation
	// when sampling is disabled, sampled estimation when a job carries
	// sampling parameters. Figure sweeps simulate their points themselves
	// (so a sampled figure can report its confidence intervals). Tests
	// substitute stubs to exercise queueing and cancellation deterministically.
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
//	POST /run               JSON JobRequest -> JSON JobResponse (system.Results)
//	GET  /figure/{id}       regenerate one figure (query: scale, bench, format)
//	POST /jobs              submit an async sweep -> 202 {id} (see JobSpec)
//	GET  /jobs/{id}         async job status + per-point progress
//	GET  /jobs/{id}/result  async job result once done
//	DELETE /jobs/{id}       cancel an async job
//	GET  /healthz           liveness (503 while draining)
//	GET  /metrics           Prometheus text: queue/cache/latency counters
//
// Every job runs under the request context plus the per-job timeout, so a
// client disconnect or deadline cancels the simulation mid-flight (the event
// loop polls cancellation every few thousand events).
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
	panics         atomic.Uint64 // fresh deterministic point failures (panic/violation)
	watchdogKills  atomic.Uint64 // points killed by the stall watchdog
	draining       atomic.Bool

	// origins counts job submissions (/run and /figure) per requesting
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
	s.mux.HandleFunc("/figure/", s.handleFigure)
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
	Scale     float64 `json:"scale"`                // dataset scale (default 0.25)
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

	// Workers, when positive, sets the simulation's parallel shard workers
	// (config.Workers). Purely an execution knob: results and the cache key
	// are identical for every value, so callers may tune it per backend.
	// It overrides Config.Workers when both are present.
	Workers int `json:"workers,omitempty"`
}

// JobResponse is the POST /run reply (and one element of a points job's
// result).
type JobResponse struct {
	Key       string         `json:"key"`        // canonical cache key of the point
	Cached    bool           `json:"cached"`     // served without running a simulation
	ElapsedMS float64        `json:"elapsed_ms"` // wall-clock job time
	Results   system.Results `json:"results"`
	// Error/Fault mark a point that failed under a keep-going job: Results
	// is zero-valued, Error is the failure text, and Fault its structured
	// classification. Absent on /run replies (a failed /run is an HTTP
	// error, 422 for poisoned points).
	Error string            `json:"error,omitempty"`
	Fault *fault.PointError `json:"fault,omitempty"`
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
		var core config.CoreKind
		switch coreName {
		case "IO4":
			core = config.IO4
		case "OOO4":
			core = config.OOO4
		case "OOO8":
			core = config.OOO8
		default:
			return config.Config{}, "", 0, fmt.Errorf("unknown core %q (valid: IO4, OOO4, OOO8)", coreName)
		}
		var err error
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
	if r.Workers > 0 {
		cfg.Workers = r.Workers
	}
	if r.Benchmark == "" {
		return config.Config{}, "", 0, fmt.Errorf("benchmark is required (valid: %s)", strings.Join(workload.Names(), ", "))
	}
	if !workload.Valid(r.Benchmark) {
		return config.Config{}, "", 0, fmt.Errorf("unknown benchmark %q (valid: %s)", r.Benchmark, strings.Join(workload.Names(), ", "))
	}
	scale := r.Scale
	if scale <= 0 {
		scale = 0.25
	}
	return cfg, r.Benchmark, scale, nil
}

// acquire claims a queue ticket (backpressure) and then a worker slot.
// It reports HTTP errors itself and returns false if the job must not run.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		s.rejected.Add(1)
		return false
	}
	select {
	case s.queue <- struct{}{}:
	default:
		http.Error(w, "queue full", http.StatusTooManyRequests)
		s.rejected.Add(1)
		return false
	}
	s.queued.Add(1)
	select {
	case s.work <- struct{}{}:
		s.queued.Add(-1)
		s.running.Add(1)
		return true
	case <-r.Context().Done():
		s.queued.Add(-1)
		<-s.queue
		s.failed.Add(1)
		// The client is gone; nothing useful to write, but record a status.
		http.Error(w, "client cancelled while queued", http.StatusServiceUnavailable)
		return false
	}
}

// release returns the tickets claimed by acquire.
func (s *Server) release() {
	s.running.Add(-1)
	<-s.work
	<-s.queue
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.recordOrigin(r)
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	cfg, bench, scale, err := req.resolve()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()

	timeout := s.cfg.JobTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	resp, err := s.runPoint(ctx, cfg, bench, scale)
	if err != nil {
		s.failed.Add(1)
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
	s.done.Add(1)
	s.lat.record(resp.ElapsedMS / 1e3)
	writeJSON(w, resp)
}

// point is the one way sfserve gets a simulation point's Results. POST /run
// and points jobs reach it through runPoint, GET /figure and figure jobs
// through figureCache. It wraps the Store (memory and disk cache,
// singleflight, quarantine) around compute, which must be guarded
// (fault.Guard) so a panic or a stall arrives typed, and counts the fault
// when this caller ran the simulation. cached reports a point served
// without running compute.
func (s *Server) point(ctx context.Context, key string, compute func() (system.Results, error)) (res system.Results, cached bool, err error) {
	computed := false
	res, err = s.cfg.Store.Do(ctx, key, func() (system.Results, error) {
		computed = true
		return compute()
	})
	if pe, ok := fault.As(err); ok && computed {
		// A singleflight follower shares the leader's error; only the
		// leader counts it.
		if pe.Stuck {
			s.watchdogKills.Add(1)
		}
		if pe.Deterministic() && !pe.Quarantined {
			s.panics.Add(1)
		}
	}
	if err != nil {
		return system.Results{}, false, err
	}
	return res, !computed, nil
}

// runPoint computes one resolved /run or points-job point through point,
// simulating with Config.Runner under the fault guard: panics become
// structured PointErrors (keeping the serving process up), and with
// Config.StallTimeout set the stall watchdog kills points whose event loop
// stops advancing simulated time. On error the response still carries the
// key and elapsed time.
func (s *Server) runPoint(ctx context.Context, cfg config.Config, bench string, scale float64) (JobResponse, error) {
	key := system.CacheKey(cfg, bench, scale)
	start := time.Now()
	res, cached, err := s.point(ctx, key, func() (system.Results, error) {
		var res system.Results
		err := fault.Guard(ctx, key, s.cfg.StallTimeout, 0, func(ctx context.Context) (err error) {
			res, err = s.cfg.Runner(ctx, cfg, bench, scale)
			return err
		})
		return res, err
	})
	return JobResponse{
		Key:       key,
		Cached:    cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Results:   res,
	}, err
}

// figureCache is the experiments.ResultCache a figure sweep runs against:
// every point goes through Server.point, with the sweep's own guarded
// compute.
type figureCache struct{ s *Server }

func (c figureCache) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	res, _, err := c.s.point(ctx, key, compute)
	return res, err
}

// runFigure regenerates one figure through figureCache, under the server's
// stall watchdog. For a figure job the sweep's progress is mirrored into
// the job's status.
func (s *Server) runFigure(ctx context.Context, j *job, fs FigureSpec, keepGoing bool) (*experiments.Table, error) {
	fn, ok := experiments.ByName(fs.ID)
	if !ok {
		return nil, fmt.Errorf("unknown figure %q", fs.ID)
	}
	opts := experiments.Options{
		Scale:        0.25,
		Benchmarks:   fs.Benchmarks,
		Cache:        figureCache{s},
		Sanitize:     sanitize.ModeOff,
		Context:      ctx,
		KeepGoing:    keepGoing,
		StallTimeout: s.cfg.StallTimeout,
	}
	if fs.Scale > 0 {
		opts.Scale = fs.Scale
	}
	if fs.Sample != nil {
		opts.Sample = *fs.Sample
	}
	if j != nil {
		opts.Progress = func(ev experiments.ProgressEvent) {
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
		}
	}
	return fn(opts)
}

// handleFigure regenerates one figure table through the shared result cache:
// GET /figure/13?scale=0.05&bench=nn,conv3d&format=csv|text|json. Sampled
// regeneration is selected with sample=1 (16 intervals unless overridden by
// sample-intervals, sample-measure, sample-seed); the table then reports
// estimates and carries the sampling summary (per-point CIs) in its notes
// and JSON form.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.recordOrigin(r)
	id := strings.TrimPrefix(r.URL.Path, "/figure/")
	// Path hygiene before any id lookup: "/figure/13/extra" is a different
	// resource, not figure "13/extra" — 404, never an id parse. A malformed
	// id (not numeric, not a named figure) is the caller's error: 400 with
	// the accepted forms, instead of whatever an id-parse failure would
	// surface.
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "not found (figures are served at /figure/{id})", http.StatusNotFound)
		return
	}
	if _, ok := experiments.ByName(id); !ok {
		if _, err := strconv.Atoi(id); err != nil {
			http.Error(w, fmt.Sprintf("bad figure id %q (want a figure number or area, ablations, latency)", id), http.StatusBadRequest)
			return
		}
		http.Error(w, fmt.Sprintf("unknown figure %q (want 2, 13-19, area, ablations, latency)", id), http.StatusNotFound)
		return
	}
	fs := FigureSpec{ID: id}
	if v := r.URL.Query().Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			http.Error(w, "bad scale", http.StatusBadRequest)
			return
		}
		fs.Scale = f
	}
	if v := r.URL.Query().Get("bench"); v != "" {
		names, err := workload.ParseNames(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fs.Benchmarks = names
	}
	if sp, err := sampleQuery(r.URL.Query()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if sp.Enabled() {
		fs.Sample = &sp
	}
	if !s.acquire(w, r) {
		return
	}
	defer s.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
	defer cancel()

	start := time.Now()
	tbl, err := s.runFigure(ctx, nil, fs, false)
	if err != nil {
		s.failed.Add(1)
		status := http.StatusInternalServerError
		if isCtxErr(err) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.done.Add(1)
	s.lat.record(time.Since(start).Seconds())
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tbl.Fprint(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := tbl.WriteCSV(w); err != nil {
			return // headers already sent; nothing recoverable
		}
	case "json":
		writeJSON(w, tbl)
	default:
		http.Error(w, "unknown format (want text, csv, json)", http.StatusBadRequest)
	}
}

// sampleQuery parses the /figure sampling query parameters. sample=1 (or
// any strconv truth value) enables sampling with 16 intervals; the
// sample-intervals, sample-measure and sample-seed parameters override the
// plan and imply sample=1 when present.
func sampleQuery(q url.Values) (config.SampleParams, error) {
	var sp config.SampleParams
	enabled := false
	if v := q.Get("sample"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return sp, fmt.Errorf("bad sample %q", v)
		}
		enabled = b
	}
	intN := func(name string) (int64, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("bad %s %q", name, v)
		}
		return n, true, nil
	}
	k, kSet, err := intN("sample-intervals")
	if err != nil {
		return sp, err
	}
	m, mSet, err := intN("sample-measure")
	if err != nil {
		return sp, err
	}
	seed, seedSet, err := intN("sample-seed")
	if err != nil {
		return sp, err
	}
	if !enabled && !kSet && !mSet && !seedSet {
		return sp, nil
	}
	sp.Intervals = 16
	if kSet {
		sp.Intervals = int(k)
	}
	sp.Measure = int(m)
	sp.Seed = seed
	if err := sp.Validate(); err != nil {
		return config.SampleParams{}, err
	}
	return sp, nil
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
	h := Health{
		Status:            "ok",
		Panics:            s.panics.Load(),
		WatchdogKills:     s.watchdogKills.Load(),
		PointsQuarantined: s.cfg.Store.Stats().Poisoned,
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
	counter("sfserve_panics_total", s.panics.Load(), "simulator panics contained and converted to typed errors")
	counter("sfserve_watchdog_kills_total", s.watchdogKills.Load(), "points killed by the stall watchdog")
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
