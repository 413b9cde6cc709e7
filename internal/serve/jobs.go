package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/fault"
	"streamfloat/internal/workload"
)

// JobState is an async job's lifecycle state.
type JobState string

// Async job states. Queued and running jobs resume after a restart; done,
// failed, and cancelled are terminal.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobSpec is the POST /jobs body: one async sweep, either a figure
// regeneration or an explicit list of simulation points. Exactly one of
// Figure and Points must be set.
type JobSpec struct {
	// Figure regenerates one of the paper's figures through the shared
	// result cache, like GET /figure/{id} but asynchronously.
	Figure *FigureSpec `json:"figure,omitempty"`
	// Points runs an explicit list of simulation points (each one a /run
	// body) in order, through the shared result cache.
	Points []JobRequest `json:"points,omitempty"`
	// TimeoutMS caps the whole job's wall-clock time; 0 inherits the server
	// default (which exists to bound runaway jobs, not to race small ones).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// KeepGoing completes the sweep with failed points marked instead of
	// failing the job on the first point error: a figure job folds failures
	// into the table's footnotes, a points job records per-point Error/Fault
	// in its JobResponses. The job only fails when cancelled or when every
	// point failed.
	KeepGoing bool `json:"keep_going,omitempty"`
}

// FigureSpec names a figure sweep inside a JobSpec.
type FigureSpec struct {
	ID         string               `json:"id"`                   // 2, 13-19, area, ablations, latency
	Scale      float64              `json:"scale,omitempty"`      // dataset scale (default 0.25)
	Benchmarks []string             `json:"benchmarks,omitempty"` // subset (default: all)
	Sample     *config.SampleParams `json:"sample,omitempty"`     // sampled regeneration
}

// validate rejects malformed specs before a job id is minted.
func (s JobSpec) validate() error {
	switch {
	case s.Figure == nil && len(s.Points) == 0:
		return fmt.Errorf("job spec needs a figure or at least one point")
	case s.Figure != nil && len(s.Points) > 0:
		return fmt.Errorf("job spec must set figure or points, not both")
	}
	if f := s.Figure; f != nil {
		if _, ok := experiments.ByName(f.ID); !ok {
			return fmt.Errorf("unknown figure %q (want 2, 13-19, area, ablations, latency)", f.ID)
		}
		if f.Scale < 0 {
			return fmt.Errorf("bad figure scale %v", f.Scale)
		}
		for _, b := range f.Benchmarks {
			if !workload.Valid(b) {
				return fmt.Errorf("unknown benchmark %q (valid: %s)", b, strings.Join(workload.Names(), ", "))
			}
		}
		if f.Sample != nil {
			if err := f.Sample.Validate(); err != nil {
				return err
			}
		}
	}
	for i, p := range s.Points {
		if _, _, _, err := p.resolve(); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

// JobProgress is an async job's per-point progress.
type JobProgress struct {
	Total     int `json:"total"`     // points in the sweep (0 until known)
	Started   int `json:"started"`   // points begun
	Completed int `json:"completed"` // points finished successfully
	Cached    int `json:"cached"`    // completed points served from the cache
	Failed    int `json:"failed,omitempty"`
	// EstRemainingMS estimates the remaining wall-clock time from observed
	// per-point wall times; 0 until the first computed point finishes.
	EstRemainingMS float64 `json:"est_remaining_ms,omitempty"`
}

// JobStatus is the GET /jobs/{id} reply.
type JobStatus struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Error   string   `json:"error,omitempty"`
	Resumed bool     `json:"resumed,omitempty"` // recovered from the journal after a restart
	// Fault is the structured classification of a failed job's error, when
	// it failed on a point fault. A deterministic kind (panic, violation)
	// tells clients the failure is a property of the job's points — retrying
	// or failing over to another backend will fail identically.
	Fault    *fault.PointError `json:"fault,omitempty"`
	Progress JobProgress       `json:"progress"`
}

// JobResult is the GET /jobs/{id}/result reply: the figure table or the
// per-point responses, depending on the spec.
type JobResult struct {
	Figure *experiments.Table `json:"figure,omitempty"`
	Points []JobResponse      `json:"points,omitempty"`
}

// SubmitResponse is the POST /jobs reply.
type SubmitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
}

// job is one async job's in-memory state.
type job struct {
	id      string
	spec    JobSpec
	resumed bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     JobState
	errMsg    string
	fault     *fault.PointError // structured classification of a point failure
	progress  JobProgress
	result    *JobResult
	cancelled bool // DELETE requested (distinguishes cancel from crash/kill)
}

// status snapshots the job for the status endpoint.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Error: j.errMsg, Fault: j.fault, Resumed: j.resumed, Progress: j.progress}
}

// newJobID mints a random journal-safe job id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: job id entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// submitJob registers a new job and starts its runner goroutine. When
// resumedFrom is non-nil the job is a journal recovery: it keeps its old id
// and its journal file (already holding the completed-point records).
func (s *Server) submitJob(spec JobSpec, resumedFrom *RecoveredJob) *job {
	id := newJobID()
	resumed := false
	if resumedFrom != nil {
		id = resumedFrom.ID
		resumed = true
	}
	ctx, cancel := context.WithCancel(s.base)
	j := &job{
		id:      id,
		spec:    spec,
		resumed: resumed,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   JobQueued,
	}
	s.jobsMu.Lock()
	s.jobs[id] = j
	s.jobsMu.Unlock()
	if s.cfg.Journal != nil {
		if resumedFrom == nil {
			s.journalTry(s.cfg.Journal.JobCreated(id, spec))
		} else {
			s.journalTry(s.cfg.Journal.JobState(id, JobQueued, ""))
		}
	}
	if resumed {
		s.asyncResumed.Add(1)
	} else {
		s.asyncSubmitted.Add(1)
	}
	s.queued.Add(1)
	s.jobsWG.Add(1)
	go s.runJob(j)
	return j
}

// registerFinishedJob re-registers a journaled terminal job after a restart
// so its status and result stay queryable.
func (s *Server) registerFinishedJob(rec RecoveredJob) {
	ctx, cancel := context.WithCancel(s.base)
	cancel()
	j := &job{
		id:      rec.ID,
		spec:    rec.Spec,
		resumed: true,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   rec.State,
		errMsg:  rec.Error,
		result:  rec.Result,
	}
	close(j.done)
	completed := len(rec.Points)
	cached := 0
	for _, c := range rec.Points {
		if c {
			cached++
		}
	}
	j.progress = JobProgress{Total: completed, Started: completed, Completed: completed, Cached: cached}
	s.jobsMu.Lock()
	s.jobs[rec.ID] = j
	s.jobsMu.Unlock()
}

// resumeJournal recovers journaled jobs at startup: unfinished jobs are
// re-submitted (their completed points replay from the content-addressed
// cache), finished ones are re-registered for status/result queries.
func (s *Server) resumeJournal() {
	recs, err := s.cfg.Journal.Recover()
	if err != nil {
		s.journalErrs.Add(1)
		return
	}
	for _, rec := range recs {
		// Seed the Store's quarantine from journaled poison records before
		// the job reruns, so resumed sweeps replay the recorded failures
		// instead of recomputing points guaranteed to fail again.
		for key, pe := range rec.Poisoned {
			s.cfg.Store.Quarantine(key, pe)
		}
		if rec.Resumable() {
			s.submitJob(rec.Spec, &rec)
		} else {
			s.registerFinishedJob(rec)
		}
	}
}

// journalTry counts (rather than propagates) journal append failures: the
// journal is a durability layer, and a full disk must degrade resumability,
// not fail the job producing the results.
func (s *Server) journalTry(err error) {
	if err != nil {
		s.journalErrs.Add(1)
	}
}

// journalPoint records how a point of job j (nil: no job) ended: a
// completion, or — for a fresh deterministic failure — a poison record, so
// a resumed job (and any later job over the same journal) skips the key
// instead of recomputing a simulation that can only crash again. Other
// failures leave no record and simply re-run on resume.
func (s *Server) journalPoint(j *job, key string, cached bool, err error) {
	if s.cfg.Journal == nil || j == nil {
		return
	}
	if err == nil {
		s.journalTry(s.cfg.Journal.PointDone(j.id, key, cached))
		return
	}
	if pe, ok := fault.As(err); ok && pe.Deterministic() && !pe.Quarantined {
		s.journalTry(s.cfg.Journal.PointPoisoned(j.id, key, pe.Served()))
	}
}

// setJobState transitions the job and journals the transition.
func (s *Server) setJobState(j *job, state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
	if s.cfg.Journal != nil {
		s.journalTry(s.cfg.Journal.JobState(j.id, state, errMsg))
	}
}

// runJob drives one async job: wait for a worker slot, run the sweep, and
// record the terminal state. If the server is killed (crash emulation /
// process death) nothing terminal is journaled, so a restarted server
// resumes the job from its last completed point.
func (s *Server) runJob(j *job) {
	defer s.jobsWG.Done()
	defer close(j.done)
	select {
	case s.work <- struct{}{}:
	case <-j.ctx.Done():
		s.queued.Add(-1)
		s.finishJob(j, JobResult{}, j.ctx.Err())
		return
	}
	s.queued.Add(-1)
	s.running.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.work
	}()

	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutMS > 0 {
		if d := time.Duration(j.spec.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	s.setJobState(j, JobRunning, "")
	start := time.Now()
	var res JobResult
	var err error
	if j.spec.Figure != nil {
		res.Figure, err = s.runFigure(ctx, j, *j.spec.Figure, j.spec.KeepGoing)
	} else {
		res.Points, err = s.runPointsJob(ctx, j)
	}
	if err == nil {
		s.lat.record(time.Since(start).Seconds())
	}
	s.finishJob(j, res, err)
}

// finishJob records the job's terminal state — unless the server itself is
// shutting down abruptly, in which case the journal keeps showing the job
// unfinished and the next process resumes it.
func (s *Server) finishJob(j *job, res JobResult, err error) {
	if s.base.Err() != nil && err != nil && isCtxErr(err) {
		// Killed mid-flight: leave no terminal record (matches a real crash,
		// where nothing gets the chance to write one).
		return
	}
	j.mu.Lock()
	cancelled := j.cancelled
	j.mu.Unlock()
	switch {
	case err == nil:
		j.mu.Lock()
		j.result = &res
		j.mu.Unlock()
		s.done.Add(1)
		s.setJobState(j, JobDone, "")
		if s.cfg.Journal != nil {
			s.journalTry(s.cfg.Journal.JobResult(j.id, res))
		}
	case cancelled && isCtxErr(err):
		s.failed.Add(1)
		s.setJobState(j, JobCancelled, "")
	default:
		s.failed.Add(1)
		if pe, ok := fault.As(err); ok {
			j.mu.Lock()
			j.fault = pe.Served()
			j.mu.Unlock()
		}
		s.setJobState(j, JobFailed, err.Error())
	}
}

// runPointsJob runs the spec's explicit points in order through runPoint,
// which journals each one. Under spec.KeepGoing a failed point is marked in
// its JobResponse (Error/Fault, zero Results) and the sweep continues;
// otherwise the first failure fails the job.
func (s *Server) runPointsJob(ctx context.Context, j *job) ([]JobResponse, error) {
	points := j.spec.Points
	j.mu.Lock()
	j.progress.Total = len(points)
	j.mu.Unlock()
	out := make([]JobResponse, 0, len(points))
	var wallSumMS float64
	wallN := 0
	failures := 0
	for i, pr := range points {
		cfg, bench, scale, err := pr.resolve()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		j.mu.Lock()
		j.progress.Started++
		j.mu.Unlock()
		resp, err := s.runPoint(ctx, j, cfg, bench, scale)
		if err != nil {
			j.mu.Lock()
			j.progress.Failed++
			j.mu.Unlock()
			if !j.spec.KeepGoing || ctx.Err() != nil {
				return nil, fmt.Errorf("point %d (%s): %w", i, bench, err)
			}
			failures++
			pe := fault.Classify(resp.Key, err)
			resp.Error, resp.Fault = pe.Error(), pe.Served()
			out = append(out, resp)
			continue
		}
		if !resp.Cached {
			wallSumMS += resp.ElapsedMS
			wallN++
		}
		j.mu.Lock()
		j.progress.Completed++
		if resp.Cached {
			j.progress.Cached++
		}
		if wallN > 0 {
			remaining := len(points) - j.progress.Completed
			j.progress.EstRemainingMS = wallSumMS / float64(wallN) * float64(remaining)
		}
		j.mu.Unlock()
		out = append(out, resp)
	}
	if failures > 0 && failures == len(points) {
		return nil, fmt.Errorf("all %d points failed: %w", failures, out[0].Fault)
	}
	return out, nil
}

// handleJobs accepts new async jobs: POST /jobs -> 202 {id, state}.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		s.rejected.Add(1)
		return
	}
	s.recordOrigin(r)
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := spec.validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := s.submitJob(spec, nil)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, SubmitResponse{ID: j.id, State: JobQueued})
}

// handleJob serves one job's status, result, and cancellation:
//
//	GET    /jobs/{id}         -> JobStatus
//	GET    /jobs/{id}/result  -> JobResult (409 until the job is done)
//	DELETE /jobs/{id}         -> cancel (or forget a finished job)
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/")
	id := parts[0]
	s.jobsMu.Lock()
	j, ok := s.jobs[id]
	s.jobsMu.Unlock()
	if id == "" || !ok || len(parts) > 2 || (len(parts) == 2 && parts[1] != "result") {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	wantResult := len(parts) == 2

	switch r.Method {
	case http.MethodGet:
	case http.MethodDelete:
		if wantResult {
			http.Error(w, "DELETE targets /jobs/{id}", http.StatusMethodNotAllowed)
			return
		}
		s.cancelJob(w, j)
		return
	default:
		http.Error(w, "GET or DELETE only", http.StatusMethodNotAllowed)
		return
	}

	st := j.status()
	if !wantResult {
		writeJSON(w, st)
		return
	}
	switch st.State {
	case JobDone:
		j.mu.Lock()
		res := j.result
		j.mu.Unlock()
		if res == nil {
			// A journaled done-job whose result record was lost: the points
			// are all cached, so re-submitting the spec rebuilds it cheaply.
			http.Error(w, "result not retained; resubmit the job (points are cached)", http.StatusGone)
			return
		}
		writeJSON(w, *res)
	case JobFailed:
		http.Error(w, st.Error, http.StatusInternalServerError)
	case JobCancelled:
		http.Error(w, "job cancelled", http.StatusGone)
	default:
		w.WriteHeader(http.StatusConflict)
		writeJSON(w, st)
	}
}

// cancelJob cancels a queued/running job, or forgets a finished one.
func (s *Server) cancelJob(w http.ResponseWriter, j *job) {
	j.mu.Lock()
	terminal := j.state.terminal()
	if !terminal {
		j.cancelled = true
	}
	j.mu.Unlock()
	if terminal {
		s.jobsMu.Lock()
		delete(s.jobs, j.id)
		s.jobsMu.Unlock()
		if s.cfg.Journal != nil {
			s.journalTry(s.cfg.Journal.Remove(j.id))
		}
		writeJSON(w, map[string]string{"id": j.id, "state": "deleted"})
		return
	}
	j.cancel()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"id": j.id, "state": "cancelling"})
}

// Kill abruptly stops all job goroutines without recording terminal states,
// emulating a crash or SIGKILL: in-flight simulations abort at their next
// cancellation check and the journal still shows the jobs unfinished, so the
// next server over the same journal and cache resumes them. Tests (and the
// CI resume exercise) use it; graceful shutdown uses Drain + WaitJobs.
func (s *Server) Kill() {
	s.kill()
	s.jobsWG.Wait()
}

// WaitJobs blocks until every async job goroutine has finished, or ctx
// expires. cmd/sfserve calls it inside the SIGTERM drain window so running
// jobs finish (and journal their terminal states) before the process exits.
func (s *Server) WaitJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
