package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamfloat/internal/cluster"
	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/sample"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

const sanitizeOff = sanitize.ModeOff

// sizes fixes how much work one pass of each workload is. The seed never
// reaches it: a seed changes generated inputs (request order, micro-rung
// event plans), never simulator configuration.
type sizes struct {
	sweepBenches []string // benchmarks of the Fig 13 sweep set
	sweepScale   float64  // dataset scale of the sweep set
	simScale     float64  // dataset scale of the one-sim-workers nn run
	hitPoints    int      // distinct cached points behind serve-hit
	hitLRU       int      // serve-hit's in-memory LRU entries
	hitBatch     int      // requests per serve-hit pass
}

// defaultSizes is the sweep set S13 (Fig 13's 5 systems x 3 cores over one
// dense-affine, one indirect and one confluence benchmark) and the other
// workloads' sizes. It is sized for the driver's budget (4 + 22 x 6 runs,
// three set-ups each, in 3420 s): a sweep pass is ~3.3 s on two cores and
// cannot go lower, because conv3d reaches its 32^3 floor below scale 0.33.
var defaultSizes = sizes{
	sweepBenches: []string{"mv", "bfs", "conv3d"}, sweepScale: 0.03,
	simScale:  0.2,
	hitPoints: 512, hitLRU: 64, hitBatch: 4096,
}

// env is what a workload is built from.
type env struct {
	p       int
	seed    int64
	sizes   sizes
	scratch string // directory for stores and journals, inside the checkout
	traced  bool   // set-up also computes what only per-layer metrics need
}

// passResult is one timed pass.
type passResult struct {
	wall      time.Duration
	lat       []time.Duration // one per awaited operation
	attempted int             // operations and remote attempts started
	failed    int             // of those, failed or refused
	instr     uint64          // simulated instructions of the Results delivered
	digest    string
	layer     map[string]float64 // per-layer counts and ratios seen at this pass's boundaries
}

// workload is one of the six benchmark workloads.
type workload interface {
	// setup builds inputs, populates stores, starts servers and computes the
	// reference the passes are checked against.
	setup(ctx context.Context) error
	// pass runs one pass, timing only what a caller of the stack would wait
	// for. rec is nil with tracing off.
	pass(ctx context.Context, rec *recorder) (passResult, error)
	// reference is the digest every pass must reproduce.
	reference() string
	teardown()
}

func newWorkload(name string, e env) (workload, error) {
	plan := sweepPlan{benches: e.sizes.sweepBenches, scale: e.sizes.sweepScale, parallelism: e.p}
	switch name {
	case "fig13-cold":
		return &localSweep{env: e, plan: plan}, nil
	case "fig13-sampled":
		plan.sample = config.SampleParams{Intervals: 16}
		return &localSweep{env: e, plan: plan}, nil
	case "one-sim-workers":
		return &oneSim{env: e}, nil
	case "serve-hit":
		return &serveHit{env: e}, nil
	case "cluster-cold":
		return &clusterCold{env: e, plan: plan}, nil
	case "jobs-journal-cold":
		return &jobsJournal{env: e, plan: plan}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sweepPass turns a finished sweep into a passResult.
func sweepPass(o sweepOut) passResult {
	var slowest time.Duration
	for _, d := range o.lat {
		if d > slowest {
			slowest = d
		}
	}
	return passResult{
		wall: o.wall, lat: o.lat, attempted: len(o.lat), failed: o.failed,
		instr: o.instructions(), digest: o.digest(),
		// The slowest point sets the sweep's tail.
		layer: map[string]float64{"experiments.slowest_point_frac": float64(slowest) / float64(o.wall)},
	}
}

// --- fig13-cold, fig13-sampled ------------------------------------------------

// localSweep runs the sweep in-process with no cache. Its set-up is one
// untimed pass: it fills the Go heap and lazy state the way a long-lived
// sfexp has them, and its digest is the reference.
type localSweep struct {
	env
	plan sweepPlan
	ref  sweepOut
	full sweepOut // traced sampled runs: the full-fidelity sweep the CIs are checked against
}

func (w *localSweep) setup(ctx context.Context) error {
	var err error
	if w.ref, err = w.plan.run(ctx, nil, nil); err != nil {
		return err
	}
	if w.traced && w.plan.sample.Enabled() {
		full := w.plan
		full.sample = config.SampleParams{}
		w.full, err = full.run(ctx, nil, nil)
	}
	return err
}

func (w *localSweep) pass(ctx context.Context, rec *recorder) (passResult, error) {
	o, err := w.plan.run(ctx, nil, rec)
	if err != nil {
		return passResult{}, err
	}
	pr := sweepPass(o)
	if s := o.table.Sampling; s != nil {
		pr.layer["sample.work_reduction"] = s.MeanSpeedup
		if w.full.results != nil {
			pr.layer["sample.ci_cover_frac"] = ciCover(s.Points, w.full.results)
		}
	}
	return pr, nil
}

func (w *localSweep) reference() string { return w.ref.digest() }
func (w *localSweep) teardown()         {}

// ciCover is the share of sampled points whose full-run cycle count lies
// inside the point's 95% confidence interval.
func ciCover(pts []experiments.PointEstimate, full map[string]system.Results) float64 {
	cycles := map[string]float64{}
	for _, r := range full {
		cycles[r.Benchmark+"/"+r.Config.Label()] = float64(r.Stats.Cycles)
	}
	in := 0
	for _, pt := range pts {
		cfg := config.Default()
		label := fmt.Sprintf("%s/%s/%dx%d", pt.System, pt.Core, cfg.MeshWidth, cfg.MeshHeight)
		if v, ok := cycles[pt.Bench+"/"+label]; ok && pt.Cycles.Contains(v) {
			in++
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return float64(in) / float64(len(pts))
}

// --- one-sim-workers -----------------------------------------------------------

// oneSim runs a single full-size simulation with P shard workers. Set-up
// runs the same point with one worker; every pass must reproduce its
// Results exactly.
type oneSim struct {
	env
	cfg config.Config
	ref system.Results
}

const oneSimBench = "nn"

func (w *oneSim) setup(ctx context.Context) error {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		return err
	}
	cfg.Sanitize = sanitizeOff
	w.cfg = cfg
	cfg.Workers = 1
	w.ref, err = system.RunBenchmark(ctx, cfg, oneSimBench, w.sizes.simScale)
	return err
}

func (w *oneSim) pass(ctx context.Context, rec *recorder) (passResult, error) {
	cfg := w.cfg
	cfg.Workers = w.p
	root := rec.start(nil, spanSweep)
	sp := rec.start(root, spanCompute)
	begin := time.Now()
	res, err := system.RunBenchmark(ctx, cfg, oneSimBench, w.sizes.simScale)
	wall := time.Since(begin)
	sp.end()
	root.end()
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		wall: wall, lat: []time.Duration{wall}, attempted: 1,
		instr: res.Stats.Instructions, digest: digestOne(res),
		layer: map[string]float64{"par.effective_workers": float64(effectiveWorkers(cfg.Workers, cfg.Tiles()))},
	}, nil
}

// derived reports par.speedup: wall at one worker over wall at P workers.
// Base: one more workers=1 run, warm like the passes it is compared with.
func (w *oneSim) derived(ctx context.Context, passWall float64) (string, float64, error) {
	cfg := w.cfg
	cfg.Workers = 1
	begin := time.Now()
	_, err := system.RunBenchmark(ctx, cfg, oneSimBench, w.sizes.simScale)
	return "par.speedup", time.Since(begin).Seconds() / passWall, err
}

func digestOne(r system.Results) string {
	return statsDigest(map[string]system.Results{"": r}, nil)
}

func (w *oneSim) reference() string { return digestOne(w.ref) }
func (w *oneSim) teardown()         {}

// --- in-process sfserve ---------------------------------------------------------

// backend is one in-process sfserve on loopback.
type backend struct {
	srv   *serve.Server
	http  *http.Server
	addr  string
	store *serve.Store
	done  chan struct{}

	// rec is the recorder of the pass in flight, nil with tracing off. A
	// backend that outlives a pass (serve-hit's) has it swapped per pass.
	rec atomic.Pointer[recorder]
}

// startBackend serves cfg on a loopback port. While a recorder is set, every
// request is wrapped in a serve.handle span parented (through spanHeader)
// under the client span that sent it; a backend started with one also wraps
// every simulation in a compute span around the production runner.
func startBackend(cfg serve.Config, rec *recorder) (*backend, error) {
	if rec != nil {
		cfg.Runner = func(ctx context.Context, c config.Config, bench string, scale float64) (system.Results, error) {
			sp := rec.start(spanFrom(ctx), spanCompute)
			defer sp.end()
			return sample.Run(ctx, c, bench, scale)
		}
	}
	b := &backend{srv: serve.NewServer(cfg), store: cfg.Store, done: make(chan struct{})}
	b.rec.Store(rec)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.addr = ln.Addr().String()
	b.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := b.rec.Load()
		if rec == nil {
			b.srv.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		sp := rec.startID(parent, spanHandle)
		defer sp.end()
		b.srv.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
	})}
	go func() {
		defer close(b.done)
		b.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return b, nil
}

// stop closes the listener and every connection, and waits for the serve
// loop and any async job to end.
func (b *backend) stop() {
	b.http.Close()
	<-b.done
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.WaitJobs(ctx)
}

// spanTransport records client-side http.request and decode spans around the
// transport it wraps, and stamps the request span's id on the request so the
// in-process backend can parent its handler span under it.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent := spanFrom(r.Context())
	sp := t.rec.start(parent, spanHTTP)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(sp.spanID()))
	resp, err := t.base.RoundTrip(r)
	sp.end()
	if err != nil {
		return nil, err
	}
	resp.Body = &decodeBody{ReadCloser: resp.Body, sp: t.rec.start(parent, spanDecode)}
	return resp, nil
}

// decodeBody ends the decode span when the caller closes the response body.
type decodeBody struct {
	io.ReadCloser
	sp   *spanRef
	once sync.Once
}

func (b *decodeBody) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}

// newHTTPClient returns a keep-alive client with at most conns connections
// per host, recording spans when rec is set.
func newHTTPClient(conns int, rec *recorder) *http.Client {
	tr := &http.Transport{MaxIdleConns: 4 * conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	if rec == nil {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: spanTransport{base: tr, rec: rec}}
}

// --- serve-hit -------------------------------------------------------------------

// serveHit is a closed loop: P callers, each on its own keep-alive
// connection, each sending its next POST /run only after the previous reply
// (as sfexp and cluster.Client do). Every point is already in the backend's
// disk store; keys are drawn seeded-Zipf, so the hot head is served from the
// 64-entry memory LRU and the tail from disk. The engine does no work.
type serveHit struct {
	env
	dir    string
	be     *backend
	client *http.Client
	keys   []string
	bodies [][]byte
	want   map[string]system.Results
	ref    string
	batch  int // passes run so far, so every pass draws fresh keys
}

const hitBench = "nw"

func (w *serveHit) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.scratch, "serve-hit-")
	if err != nil {
		return err
	}
	w.dir = dir
	// 15 base points are really simulated; each is stored under
	// hitPoints/15 scales a few 1e-9 apart. The perturbation is far below
	// the dataset's rounding, so the stored Results are exactly what
	// simulating that key would produce, and the keys are distinct.
	fill, err := serve.NewStore(w.sizes.hitPoints, dir)
	if err != nil {
		return err
	}
	const baseScale = 0.02
	w.want = map[string]system.Results{}
	w.keys, w.bodies = nil, nil
	type basePoint struct {
		req serve.JobRequest
		cfg config.Config // what the server resolves req to
		res system.Results
	}
	var bases []basePoint
	for _, core := range []config.CoreKind{config.IO4, config.OOO4, config.OOO8} {
		for _, sys := range []string{"Base", "Stride", "Bingo", "SS", "SF"} {
			cfg, err := config.ForSystem(sys, core)
			if err != nil {
				return err
			}
			cfg.Sanitize = sanitizeOff
			res, err := system.RunBenchmark(ctx, cfg, hitBench, baseScale)
			if err != nil {
				return err
			}
			req := serve.JobRequest{System: sys, Core: core.String(), Benchmark: hitBench, Sanitize: "off"}
			bases = append(bases, basePoint{req, cfg, res})
		}
	}
	for i := 0; len(w.keys) < w.sizes.hitPoints; i++ {
		b := bases[i%len(bases)]
		b.req.Scale = baseScale + float64(i/len(bases))*1e-9
		key := system.CacheKey(b.cfg, hitBench, b.req.Scale)
		if _, err := fill.Do(ctx, key, func() (system.Results, error) { return b.res, nil }); err != nil {
			return err
		}
		body, err := json.Marshal(b.req)
		if err != nil {
			return err
		}
		w.keys = append(w.keys, key)
		w.bodies = append(w.bodies, body)
		w.want[key] = b.res
	}
	w.ref = statsDigest(w.want, nil)

	store, err := serve.NewStore(w.sizes.hitLRU, dir)
	if err != nil {
		return err
	}
	if w.be, err = startBackend(serve.Config{Store: store, Workers: w.p}, nil); err != nil {
		return err
	}
	w.client = newHTTPClient(w.p, nil)
	// One untimed batch opens the connections and fills the LRU.
	_, err = w.pass(ctx, nil)
	return err
}

func (w *serveHit) pass(ctx context.Context, rec *recorder) (passResult, error) {
	client := w.client
	if rec != nil {
		// The traced pass gets its own connections; tracing is per request.
		client = newHTTPClient(w.p, rec)
		defer client.CloseIdleConnections()
		w.be.rec.Store(rec)
		defer w.be.rec.Store(nil)
	}
	w.batch++
	before := w.be.store.Stats()
	root := rec.start(nil, spanSweep)
	rctx := withSpan(ctx, root)
	type callerOut struct {
		lat      []time.Duration
		failed   int
		rejected int
		instr    uint64
		mismatch bool
	}
	outs := make([]callerOut, w.p)
	per := w.sizes.hitBatch / w.p
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < w.p; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			rng := rand.New(rand.NewSource(w.seed<<20 + int64(w.batch)<<8 + int64(c)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.keys)-1))
			for i := 0; i < per; i++ {
				k := int(zipf.Uint64())
				t0 := time.Now()
				jr, status, err := postRun(rctx, client, w.be.addr, w.bodies[k])
				out.lat = append(out.lat, time.Since(t0))
				switch {
				case err != nil || status != http.StatusOK:
					out.failed++
					if status == http.StatusTooManyRequests {
						out.rejected++
					}
				case !jr.Cached || jr.Key != w.keys[k] || !reflect.DeepEqual(jr.Results, w.want[w.keys[k]]):
					out.mismatch = true
				default:
					out.instr += jr.Results.Stats.Instructions
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(begin)
	root.end()

	pr := passResult{wall: wall, attempted: per * w.p, digest: w.ref, layer: map[string]float64{}}
	for _, o := range outs {
		pr.lat = append(pr.lat, o.lat...)
		pr.failed += o.failed
		pr.instr += o.instr
		pr.layer["serve.rejected"] += float64(o.rejected)
		if o.mismatch {
			pr.digest = "serve-hit: a reply was not cached:true with the set-up Results"
		}
	}
	after := w.be.store.Stats()
	if hits := float64(after.Hits-before.Hits) + float64(after.DiskHits-before.DiskHits); hits > 0 {
		pr.layer["serve.mem_hit_frac"] = float64(after.Hits-before.Hits) / hits
	}
	// The highest percentile with at least ten samples beyond it.
	if lat := durationsMS(pr.lat); len(lat) >= 1000 {
		pr.layer["serve.run_hit_p99_ms"] = percentile(lat, 0.99)
	}
	return pr, nil
}

// postRun sends one POST /run and decodes the reply as cluster.Client does.
func postRun(ctx context.Context, client *http.Client, addr string, body []byte) (serve.JobResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/run", bytes.NewReader(body))
	if err != nil {
		return serve.JobResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return serve.JobResponse{}, 0, err
	}
	defer resp.Body.Close()
	var jr serve.JobResponse
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // keep the connection reusable
		return jr, resp.StatusCode, nil
	}
	err = json.NewDecoder(resp.Body).Decode(&jr)
	return jr, resp.StatusCode, err
}

func (w *serveHit) reference() string { return w.ref }

func (w *serveHit) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.be != nil {
		w.be.stop()
	}
	os.RemoveAll(w.dir)
}

// --- cluster-cold -----------------------------------------------------------------

// clusterCold runs the sweep through cluster.Client with production defaults
// (synchronous /run, adaptive hedging) over three in-process backends whose
// disk stores start empty on every pass.
type clusterCold struct {
	env
	plan  sweepPlan
	local sweepOut
}

const clusterBackends = 3

func (w *clusterCold) setup(ctx context.Context) error {
	var err error
	w.local, err = w.plan.run(ctx, nil, nil)
	return err
}

func (w *clusterCold) pass(ctx context.Context, rec *recorder) (passResult, error) {
	dir, err := os.MkdirTemp(w.scratch, "cluster-cold-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	var backends []*backend
	var addrs []string
	defer func() {
		for _, b := range backends {
			b.stop()
		}
	}()
	for i := 0; i < clusterBackends; i++ {
		store, err := serve.NewStore(0, fmt.Sprintf("%s/store%d", dir, i))
		if err != nil {
			return passResult{}, err
		}
		b, err := startBackend(serve.Config{Store: store, Workers: w.p}, rec)
		if err != nil {
			return passResult{}, err
		}
		backends = append(backends, b)
		addrs = append(addrs, b.addr)
	}
	httpc := newHTTPClient(w.p, rec)
	defer httpc.CloseIdleConnections()
	client, err := cluster.New(cluster.Config{Backends: addrs, HTTPClient: httpc, Origin: "sfbench"})
	if err != nil {
		return passResult{}, err
	}

	o, err := w.plan.run(ctx, client, rec)
	if err != nil {
		return passResult{}, err
	}
	pr := sweepPass(o)
	st := client.Stats()
	// A retry or a fallback is a remote attempt that failed or was refused.
	pr.attempted += int(st.Retries + st.Hedges)
	pr.failed += int(st.Retries + st.Fallbacks + st.Mismatches)
	var served, most uint64
	for _, b := range backends {
		n := b.store.Stats().Misses
		served += n
		if n > most {
			most = n
		}
	}
	pr.layer["cluster.hedges"] = float64(st.Hedges)
	pr.layer["cluster.hedge_wins"] = float64(st.HedgeWins)
	pr.layer["cluster.retries"] = float64(st.Retries)
	pr.layer["cluster.fallbacks"] = float64(st.Fallbacks)
	if served > 0 {
		pr.layer["cluster.max_backend_share"] = float64(most) / float64(served)
	}
	return pr, nil
}

func (w *clusterCold) reference() string { return w.local.digest() }
func (w *clusterCold) teardown()         {}

// --- jobs-journal-cold ---------------------------------------------------------------

// jobsJournal submits the sweep as one async figure job to a journaled
// sfserve with an empty disk store, polls it, and fetches the table. The pass
// is timed from the submit until the result is decoded.
type jobsJournal struct {
	env
	plan  sweepPlan
	local sweepOut
}

// jobPoll is the status-poll period: it quantizes wall_s by at most 0.1%.
const jobPoll = 3 * time.Millisecond

func (w *jobsJournal) setup(ctx context.Context) error {
	var err error
	w.local, err = w.plan.run(ctx, nil, nil)
	return err
}

func (w *jobsJournal) pass(ctx context.Context, rec *recorder) (passResult, error) {
	dir, err := os.MkdirTemp(w.scratch, "jobs-journal-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	store, err := serve.NewStore(0, dir+"/store")
	if err != nil {
		return passResult{}, err
	}
	journal, err := serve.OpenJournal(dir + "/journal")
	if err != nil {
		return passResult{}, err
	}
	be, err := startBackend(serve.Config{Store: store, Journal: journal, Workers: w.p}, rec)
	if err != nil {
		return passResult{}, err
	}
	defer be.stop()
	client := newHTTPClient(1, rec)
	defer client.CloseIdleConnections()

	spec := serve.JobSpec{Figure: &serve.FigureSpec{ID: "13", Scale: w.plan.scale, Benchmarks: w.plan.benches}}
	pr := passResult{layer: map[string]float64{}}
	root := rec.start(nil, spanSweep)
	rctx := withSpan(ctx, root)
	// call sends one request of the job protocol; any status but want counts
	// as a failed operation.
	call := func(method, path string, body any, want int, out any) (int, error) {
		pr.attempted++
		status, err := doJSON(rctx, client, method, "http://"+be.addr+path, body, out)
		if err != nil || status != want {
			pr.failed++
		}
		if status == http.StatusTooManyRequests {
			pr.layer["serve.rejected"]++
		}
		return status, err
	}
	begin := time.Now()
	var sub serve.SubmitResponse
	if status, err := call(http.MethodPost, "/jobs", spec, http.StatusAccepted, &sub); err != nil || status != http.StatusAccepted {
		return passResult{}, fmt.Errorf("POST /jobs: status %d: %v", status, err)
	}
	var st serve.JobStatus
	for {
		if _, err := call(http.MethodGet, "/jobs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return passResult{}, fmt.Errorf("GET /jobs/%s: %w", sub.ID, err)
		}
		if st.State == serve.JobDone || st.State == serve.JobFailed || st.State == serve.JobCancelled {
			break
		}
		select {
		case <-ctx.Done():
			return passResult{}, ctx.Err()
		case <-time.After(jobPoll):
		}
	}
	var result serve.JobResult
	if st.State == serve.JobDone {
		if _, err := call(http.MethodGet, "/jobs/"+sub.ID+"/result", nil, http.StatusOK, &result); err != nil {
			return passResult{}, fmt.Errorf("GET /jobs/%s/result: %w", sub.ID, err)
		}
	}
	pr.wall = time.Since(begin)
	root.end()
	pr.lat = []time.Duration{pr.wall}
	pr.attempted += st.Progress.Total
	pr.failed += st.Progress.Failed
	if st.State != serve.JobDone {
		pr.failed++
		pr.digest = "jobs-journal-cold: job ended " + string(st.State) + ": " + st.Error
		return pr, nil
	}

	// The client sees only the table; the points' Results are read back from
	// the backend's store, which also checks that every point was persisted.
	results := map[string]system.Results{}
	for key := range w.local.results {
		if res, ok := store.Get(key); ok {
			results[key] = res
			pr.instr += res.Stats.Instructions
		}
	}
	pr.digest = statsDigest(results, result.Figure)
	return pr, nil
}

// doJSON sends one JSON request and decodes a 2xx reply into out.
func doJSON(ctx context.Context, client *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 || out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// derived reports serve.overhead_frac: what the service stack adds to the
// sweep, as a share of the local sweep. Base: one more local sweep, warm like
// the passes it is compared with.
func (w *jobsJournal) derived(ctx context.Context, passWall float64) (string, float64, error) {
	local, err := w.plan.run(ctx, nil, nil)
	if err != nil {
		return "", 0, err
	}
	return "serve.overhead_frac", (passWall - local.wall.Seconds()) / local.wall.Seconds(), nil
}

func (w *jobsJournal) reference() string { return w.local.digest() }
func (w *jobsJournal) teardown()         {}
