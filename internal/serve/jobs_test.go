package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/fault"
	"streamfloat/internal/system"
)

// postJobs submits a JobSpec to POST /jobs.
func postJobs(t *testing.T, url string, spec JobSpec) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
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

// submitJobSpec submits a spec and fails the test unless it is accepted.
func submitJobSpec(t *testing.T, url string, spec JobSpec) string {
	t.Helper()
	resp, data := postJobs(t, url, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d (%s), want 202", resp.StatusCode, data)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" {
		t.Fatal("POST /jobs returned an empty job id")
	}
	return sub.ID
}

// getJobStatus fetches GET /jobs/{id}.
func getJobStatus(t *testing.T, url, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad status body %q: %v", data, err)
		}
	}
	return resp.StatusCode, st
}

// waitJobState polls until the job reaches want (or any terminal state, so a
// job failing instead of finishing reports the failure, not a timeout).
func waitJobState(t *testing.T, url, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, st := getJobStatus(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d while waiting for %s", id, code, want)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (%s), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJobResult fetches GET /jobs/{id}/result.
func getJobResult(t *testing.T, url, id string) (int, JobResult, string) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var res JobResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("bad result body %q: %v", data, err)
		}
	}
	return resp.StatusCode, res, string(data)
}

// markRunner is a stub Runner producing a deterministic marker result per
// (benchmark, scale) point and counting its invocations.
func markRunner(calls *atomic.Int64) func(context.Context, config.Config, string, float64) (system.Results, error) {
	return func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		calls.Add(1)
		return system.Results{Benchmark: fmt.Sprintf("%s@%.2f", bench, scale)}, nil
	}
}

// recoverJob recovers one job from a journal directory by id.
func recoverJob(t *testing.T, jn *Journal, id string) (RecoveredJob, bool) {
	t.Helper()
	recs, err := jn.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == id {
			return rec, true
		}
	}
	return RecoveredJob{}, false
}

// diskEntries counts the Store's persisted results (<key>.json files, not
// quarantine entries) in dir.
func diskEntries(t *testing.T, dir string) int {
	t.Helper()
	all, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	poison, err := filepath.Glob(filepath.Join(dir, "*.poison.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(all) - len(poison)
}

func TestJournalRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Points: []JobRequest{{Benchmark: "nn", Scale: 0.05}}, TimeoutMS: 1234}
	if err := j.JobCreated("job1", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.JobState("job1", JobStatus{State: JobRunning}); err != nil {
		t.Fatal(err)
	}
	// A point record (the benchmark ladder's append unit) is skipped.
	if err := j.PointDone("job1", "k1", false); err != nil {
		t.Fatal(err)
	}

	recs, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != "job1" || rec.State != JobRunning || !rec.Resumable() {
		t.Errorf("recovered %+v, want running resumable job1", rec)
	}
	if !reflect.DeepEqual(rec.Spec, spec) {
		t.Errorf("spec did not round-trip: %+v vs %+v", rec.Spec, spec)
	}
	if rec.Progress != (JobProgress{}) || rec.Fault != nil {
		t.Errorf("unfinished job recovered with status %+v / %+v, want none", rec.Progress, rec.Fault)
	}

	// Finish the job; it must recover terminal with its final status and
	// result payload.
	progress := JobProgress{Total: 2, Started: 2, Completed: 1, Cached: 1, Failed: 1}
	pe := fault.FromPanic("k2", "boom").Served()
	if err := j.JobState("job1", JobStatus{State: JobDone, Fault: pe, Progress: progress}); err != nil {
		t.Fatal(err)
	}
	if err := j.JobResult("job1", JobResult{Points: []JobResponse{{Key: "k1"}}}); err != nil {
		t.Fatal(err)
	}
	rec, ok := recoverJob(t, j, "job1")
	if !ok {
		t.Fatal("finished job not recovered")
	}
	if rec.Resumable() || rec.State != JobDone {
		t.Errorf("finished job recovered as %s (resumable=%v)", rec.State, rec.Resumable())
	}
	if rec.Progress != progress || !reflect.DeepEqual(rec.Fault, pe) {
		t.Errorf("final status recovered as %+v / %+v, want %+v / %+v", rec.Progress, rec.Fault, progress, pe)
	}
	if rec.Result == nil || len(rec.Result.Points) != 1 || rec.Result.Points[0].Key != "k1" {
		t.Errorf("result did not round-trip: %+v", rec.Result)
	}

	// A traversal-shaped id must never reach the filesystem.
	if err := j.JobCreated("../evil", spec); err == nil {
		t.Error("unsafe job id was accepted")
	}

	if err := j.Remove("job1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := recoverJob(t, j, "job1"); ok {
		t.Error("job still recoverable after Remove")
	}
	if err := j.Remove("job1"); err != nil {
		t.Errorf("removing a missing journal errored: %v", err)
	}
}

// TestJournalCorruptionTolerance: a crash can truncate the trailing record
// mid-append, version bumps orphan old records, and older journals carry
// point and poison records; recovery must skip all of them and keep
// everything else.
func TestJournalCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Points: []JobRequest{{Benchmark: "nn"}}}
	if err := j.JobCreated("j2", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.JobState("j2", JobStatus{State: JobRunning}); err != nil {
		t.Fatal(err)
	}
	// Legacy point and poison records, a mis-versioned (future) record, then
	// a crash-truncated trailing line.
	f, err := os.OpenFile(filepath.Join(dir, "j2.journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"t":"point","key":"k1"}` + "\n" +
		`{"v":1,"t":"poison","key":"kp","fault":{"key":"kp","kind":"panic","msg":"boom","quarantined":true}}` + "\n" +
		`{"v":99,"t":"state","state":"done"}` + "\n" +
		`{"v":1,"t":"state","state":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, ok := recoverJob(t, j, "j2")
	if !ok {
		t.Fatal("job not recovered after corruption")
	}
	want := RecoveredJob{ID: "j2", Spec: spec, State: JobRunning}
	if !reflect.DeepEqual(rec, want) {
		t.Errorf("recovered %+v, want %+v (legacy, future and truncated records skipped)", rec, want)
	}

	// A journal file with no valid job record is ignored, not an error.
	if err := os.WriteFile(filepath.Join(dir, "garbage.journal"), []byte("???\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "j2" {
		t.Errorf("recovered %+v, want only j2", recs)
	}
}

// TestJobsAsyncPoints drives the async job API end to end with a stub
// runner: submit, poll to done, fetch the result, resubmit (all cached),
// and delete.
func TestJobsAsyncPoints(t *testing.T) {
	var calls atomic.Int64
	h, ts := newTestServer(t, Config{Runner: markRunner(&calls)})
	spec := JobSpec{Points: []JobRequest{
		{Benchmark: "nn", Scale: 0.05},
		{Benchmark: "mv", Scale: 0.05},
	}}

	id := submitJobSpec(t, ts.URL, spec)
	st := waitJobState(t, ts.URL, id, JobDone)
	if p := st.Progress; p.Total != 2 || p.Started != 2 || p.Completed != 2 || p.Cached != 0 || p.Failed != 0 {
		t.Errorf("progress %+v, want 2 points all computed", p)
	}
	code, res, body := getJobResult(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("result = %d (%s)", code, body)
	}
	if len(res.Points) != 2 {
		t.Fatalf("result has %d points, want 2", len(res.Points))
	}
	for i, want := range []string{"nn@0.05", "mv@0.05"} {
		p := res.Points[i]
		if p.Results.Benchmark != want || p.Cached || p.Key == "" {
			t.Errorf("point %d = %+v, want computed %q with a key", i, p, want)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("runner ran %d times, want 2", calls.Load())
	}

	// Identical resubmission: a new job, served entirely from the cache.
	id2 := submitJobSpec(t, ts.URL, spec)
	st = waitJobState(t, ts.URL, id2, JobDone)
	if st.Progress.Cached != 2 {
		t.Errorf("resubmitted progress %+v, want 2 cached", st.Progress)
	}
	if calls.Load() != 2 {
		t.Errorf("runner ran %d times after resubmit, want still 2", calls.Load())
	}

	// The async counters surface in /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mdata), "sfserve_async_jobs_submitted 2") {
		t.Errorf("metrics missing async submission counter:\n%s", mdata)
	}

	// Path hygiene around /jobs/{id}.
	for path, want := range map[string]int{
		"/jobs/" + id + "/result/extra": http.StatusNotFound,
		"/jobs/" + id + "/bogus":        http.StatusNotFound,
		"/jobs/nope":                    http.StatusNotFound,
		"/jobs/":                        http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// DELETE forgets a finished job; its status then 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("DELETE finished job = %d, want 200", resp.StatusCode)
	}
	if code, _ := getJobStatus(t, ts.URL, id); code != http.StatusNotFound {
		t.Errorf("status after DELETE = %d, want 404", code)
	}
	_ = h
}

func TestJobsValidation(t *testing.T) {
	var calls atomic.Int64
	h, ts := newTestServer(t, Config{Runner: markRunner(&calls)})
	point := []JobRequest{{Benchmark: "nn"}}
	for name, spec := range map[string]JobSpec{
		"empty":             {},
		"figure and points": {Figure: &FigureSpec{ID: "13"}, Points: point},
		"unknown figure":    {Figure: &FigureSpec{ID: "99"}},
		"bad figure bench":  {Figure: &FigureSpec{ID: "13", Benchmarks: []string{"typo"}}},
		"bad figure scale":  {Figure: &FigureSpec{ID: "13", Scale: -1}},
		"bad figure sample": {Figure: &FigureSpec{ID: "13", Sample: &config.SampleParams{Intervals: -1}}},
		"bad point":         {Points: []JobRequest{{Benchmark: "typo"}}},
	} {
		resp, data := postJobs(t, ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs = %d, want 405", resp.StatusCode)
	}
	if calls.Load() != 0 {
		t.Errorf("invalid specs ran %d simulations", calls.Load())
	}

	h.Drain()
	if resp, data := postJobs(t, ts.URL, JobSpec{Points: point}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST /jobs = %d (%s), want 503", resp.StatusCode, data)
	}
}

// TestJobsCancel: DELETE on a running job cancels its simulation and the job
// terminates as cancelled; its result endpoint reports 410.
func TestJobsCancel(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		close(started)
		<-ctx.Done()
		return system.Results{}, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Runner: runner})
	id := submitJobSpec(t, ts.URL, JobSpec{Points: []JobRequest{{Benchmark: "nn"}}})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d, want 202", resp.StatusCode)
	}
	st := waitJobState(t, ts.URL, id, JobCancelled)
	if st.State != JobCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if code, _, _ := getJobResult(t, ts.URL, id); code != http.StatusGone {
		t.Errorf("cancelled job result = %d, want 410", code)
	}
}

// TestJobsFigureAsync: a figure job runs the real sweep asynchronously and
// its result is identical to the synchronous /figure render of the same
// sweep (which replays from the now-warm cache).
func TestJobsFigureAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 15 real simulations")
	}
	h, ts := newTestServer(t, Config{})
	id := submitJobSpec(t, ts.URL, JobSpec{Figure: &FigureSpec{ID: "13", Scale: 0.02, Benchmarks: []string{"nn"}}})

	st := waitJobState(t, ts.URL, id, JobDone)
	if p := st.Progress; p.Total != 15 || p.Completed != 15 || p.Failed != 0 {
		t.Errorf("figure progress %+v, want 15/15 completed", p)
	}
	code, res, body := getJobResult(t, ts.URL, id)
	if code != http.StatusOK || res.Figure == nil {
		t.Fatalf("figure result = %d (%s)", code, body)
	}

	resp, err := http.Get(ts.URL + "/figure/13?scale=0.02&bench=nn&format=json")
	if err != nil {
		t.Fatal(err)
	}
	syncBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/figure/13 = %d (%s)", resp.StatusCode, syncBody)
	}
	asyncJSON, _ := json.Marshal(res.Figure)
	var asyncTbl, syncTbl any
	if err := json.Unmarshal(asyncJSON, &asyncTbl); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(syncBody, &syncTbl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asyncTbl, syncTbl) {
		t.Errorf("async figure diverged from synchronous render:\nasync %s\nsync  %s", asyncJSON, syncBody)
	}
	// The synchronous render after the async job must have been pure cache.
	if s := h.cfg.Store.Stats(); s.Misses != 15 {
		t.Errorf("store misses = %d, want exactly 15 (sync render from cache)", s.Misses)
	}
}

// TestJobsKillRestartPoints is the deterministic crash-resume test: a points
// job is killed after exactly 3 of its 6 points complete, and a new server
// over the same journal and cache finishes it while recomputing only the
// other 3 — with per-point results identical to an uninterrupted run. The
// Store, not the journal, holds the 3 completed points.
func TestJobsKillRestartPoints(t *testing.T) {
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	spec := JobSpec{Points: []JobRequest{
		{Benchmark: "nn", Scale: 0.01},
		{Benchmark: "nn", Scale: 0.02},
		{Benchmark: "nn", Scale: 0.03},
		{Benchmark: "nn", Scale: 0.04},
		{Benchmark: "nn", Scale: 0.05},
		{Benchmark: "nn", Scale: 0.06},
	}}
	newDiskServer := func(runner func(context.Context, config.Config, string, float64) (system.Results, error)) (*Server, *Store, *httptest.Server) {
		st, err := NewStore(0, cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		jn, err := OpenJournal(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(Config{Store: st, Runner: runner, Journal: jn})
		ts := httptest.NewServer(h)
		return h, st, ts
	}

	// Server A: points run sequentially; the 4th blocks until killed.
	var callsA atomic.Int64
	blocked := make(chan struct{})
	runnerA := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		if callsA.Add(1) > 3 {
			close(blocked) // exactly once: points jobs run sequentially
			<-ctx.Done()
			return system.Results{}, ctx.Err()
		}
		return system.Results{Benchmark: fmt.Sprintf("%s@%.2f", bench, scale)}, nil
	}
	hA, _, tsA := newDiskServer(runnerA)
	id := submitJobSpec(t, tsA.URL, spec)
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached its 4th point")
	}
	hA.Kill() // crash emulation: no terminal state is journaled
	tsA.Close()

	jn, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := recoverJob(t, jn, id); !ok || !rec.Resumable() {
		t.Fatalf("journal after kill: ok=%v state=%s, want a resumable job", ok, rec.State)
	}
	if n := diskEntries(t, cacheDir); n != 3 {
		t.Fatalf("store holds %d results after the kill, want the 3 completed points", n)
	}

	// Server B over the same dirs auto-resumes the job; only the 3 missing
	// points are recomputed.
	var callsB atomic.Int64
	hB, stB, tsB := newDiskServer(markRunner(&callsB))
	defer tsB.Close()
	st := waitJobState(t, tsB.URL, id, JobDone)
	if !st.Resumed {
		t.Error("resumed job not flagged Resumed")
	}
	if st.Progress.Cached != 3 {
		t.Errorf("resumed progress %+v, want 3 cached points", st.Progress)
	}
	if got := callsB.Load(); got != 3 {
		t.Errorf("restart recomputed %d points, want exactly 3", got)
	}
	if s := stB.Stats(); s.DiskHits < 3 {
		t.Errorf("store stats %+v, want the 3 pre-crash points served from disk", s)
	}
	code, resB, body := getJobResult(t, tsB.URL, id)
	if code != http.StatusOK {
		t.Fatalf("resumed result = %d (%s)", code, body)
	}
	for i, p := range resB.Points {
		if wantCached := i < 3; p.Cached != wantCached {
			t.Errorf("point %d cached=%v, want %v", i, p.Cached, wantCached)
		}
	}
	_ = hB

	// Server C on fresh dirs runs the same spec uninterrupted; the resumed
	// job's per-point results must be DeepEqual to it.
	cacheDir, journalDir = t.TempDir(), t.TempDir()
	var callsC atomic.Int64
	_, _, tsC := newDiskServer(markRunner(&callsC))
	defer tsC.Close()
	idC := submitJobSpec(t, tsC.URL, spec)
	waitJobState(t, tsC.URL, idC, JobDone)
	_, resC, _ := getJobResult(t, tsC.URL, idC)
	if len(resB.Points) != len(resC.Points) {
		t.Fatalf("resumed run has %d points, uninterrupted %d", len(resB.Points), len(resC.Points))
	}
	for i := range resB.Points {
		if resB.Points[i].Key != resC.Points[i].Key ||
			!reflect.DeepEqual(resB.Points[i].Results, resC.Points[i].Results) {
			t.Errorf("point %d diverged:\nresumed       %+v\nuninterrupted %+v", i, resB.Points[i], resC.Points[i])
		}
	}
	if callsB.Load() >= callsC.Load() {
		t.Errorf("resume recomputed %d points, want strictly fewer than the uninterrupted %d", callsB.Load(), callsC.Load())
	}
}

// TestJobsKillRestartFigure: a real figure sweep is killed mid-flight, a
// restarted server resumes the journaled job, and the resumed figure is
// byte-identical to an uninterrupted render with at least one point served
// from the Store's disk layer and strictly fewer than all points
// recomputed. The journal records the job only, never its points.
func TestJobsKillRestartFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~2x15 real simulations across a kill/restart")
	}
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	spec := JobSpec{Figure: &FigureSpec{ID: "13", Scale: 0.02, Benchmarks: []string{"nn"}}}
	newDiskServer := func() (*Server, *Store, *httptest.Server) {
		st, err := NewStore(0, cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		jn, err := OpenJournal(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(Config{Store: st, Journal: jn})
		ts := httptest.NewServer(h)
		return h, st, ts
	}

	hA, _, tsA := newDiskServer()
	id := submitJobSpec(t, tsA.URL, spec)
	// Kill once some — but not all — of the 15 points are done.
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, st := getJobStatus(t, tsA.URL, id)
		if code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if st.State.terminal() {
			t.Fatalf("sweep finished (%s) before the kill; cannot exercise resume", st.State)
		}
		if st.Progress.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	hA.Kill()
	tsA.Close()

	jn, err := OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := recoverJob(t, jn, id); !ok || !rec.Resumable() {
		t.Fatalf("journal after kill: ok=%v state=%s, want a resumable job", ok, rec.State)
	}
	if n := diskEntries(t, cacheDir); n < 1 || n >= 15 {
		t.Fatalf("store holds %d results after the kill, want a mid-sweep 1..14", n)
	}

	hB, stB, tsB := newDiskServer()
	defer tsB.Close()
	st := waitJobState(t, tsB.URL, id, JobDone)
	if !st.Resumed {
		t.Error("resumed job not flagged Resumed")
	}
	if st.Progress.Cached == 0 {
		t.Errorf("resumed progress %+v, want >= 1 cached point", st.Progress)
	}
	if s := stB.Stats(); s.Misses >= 15 || s.DiskHits == 0 {
		t.Errorf("store stats %+v, want strictly fewer than 15 recomputes and >= 1 disk hit", s)
	}
	code, resB, body := getJobResult(t, tsB.URL, id)
	if code != http.StatusOK || resB.Figure == nil {
		t.Fatalf("resumed result = %d (%s)", code, body)
	}
	_ = hB

	// Uninterrupted reference on fresh dirs.
	cacheDir, journalDir = t.TempDir(), t.TempDir()
	hC, _, tsC := newDiskServer()
	defer tsC.Close()
	idC := submitJobSpec(t, tsC.URL, spec)
	waitJobState(t, tsC.URL, idC, JobDone)
	_, resC, _ := getJobResult(t, tsC.URL, idC)
	if err := hC.WaitJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(journalDir, idC+journalSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || (rec.T != "job" && rec.T != "state" && rec.T != "result") {
			t.Errorf("journal line %q: want only job, state and result records (err %v)", line, err)
		}
	}

	gotJSON, _ := json.Marshal(resB.Figure)
	wantJSON, _ := json.Marshal(resC.Figure)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed figure is not byte-identical to the uninterrupted render:\nresumed       %s\nuninterrupted %s", gotJSON, wantJSON)
	}
}

// TestJobsRestartStatus: a finished job's status survives a restart
// verbatim — progress counts and fault included — for a keep-going job with
// a panicking point and for a failed job; and a done keep-going job
// estimates no time remaining.
func TestJobsRestartStatus(t *testing.T) {
	journalDir := t.TempDir()
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		if bench == "mv" {
			panic("injected simulator fault")
		}
		time.Sleep(time.Millisecond) // a computed point's wall time feeds the estimate
		return system.Results{Benchmark: fmt.Sprintf("%s@%.2f", bench, scale)}, nil
	}
	newJournalServer := func() (*Server, *httptest.Server) {
		st, err := NewStore(0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		jn, err := OpenJournal(journalDir)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(Config{Store: st, Runner: runner, Journal: jn})
		return h, httptest.NewServer(h)
	}

	hA, tsA := newJournalServer()
	// The computed point comes after the failed one, so an estimate that
	// ignores failures would still count one point outstanding.
	keep := submitJobSpec(t, tsA.URL, JobSpec{KeepGoing: true, Points: []JobRequest{
		{Benchmark: "mv", Scale: 0.01},
		{Benchmark: "nn", Scale: 0.02},
	}})
	failed := submitJobSpec(t, tsA.URL, JobSpec{Points: []JobRequest{{Benchmark: "mv", Scale: 0.03}}})
	before := map[string]JobStatus{
		keep:   waitJobState(t, tsA.URL, keep, JobDone),
		failed: waitJobState(t, tsA.URL, failed, JobFailed),
	}
	if p := before[keep].Progress; p.Total != 2 || p.Completed != 1 || p.Failed != 1 || p.EstRemainingMS != 0 {
		t.Errorf("done keep-going progress %+v, want 1 completed, 1 failed, nothing remaining", p)
	}
	if st := before[failed]; st.Fault == nil || st.Fault.Kind != fault.KindPanic || st.Progress.Failed != 1 {
		t.Errorf("failed job status %+v, want a panic fault and 1 failed point", st)
	}
	if err := hA.WaitJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	hA.Kill()
	tsA.Close()

	_, tsB := newJournalServer()
	defer tsB.Close()
	for id, want := range before {
		code, got := getJobStatus(t, tsB.URL, id)
		if code != http.StatusOK || !got.Resumed {
			t.Fatalf("GET /jobs/%s after restart = %d (resumed %v), want 200 and resumed", id, code, got.Resumed)
		}
		got.Resumed = false
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %s status changed across the restart:\nbefore %+v\nafter  %+v", id, want, got)
		}
	}
}

// TestLatencyPercentilesNearestRank is the regression test for the quantile
// window: truncating int(q*(n-1)) picked the window minimum for small n, so
// a two-sample window reported its fastest job as the p99.
func TestLatencyPercentilesNearestRank(t *testing.T) {
	var l latencyWindow
	if p50, p99 := l.percentiles(); p50 != 0 || p99 != 0 {
		t.Errorf("empty window = (%v, %v), want (0, 0)", p50, p99)
	}
	l.record(5)
	if p50, p99 := l.percentiles(); p50 != 5 || p99 != 5 {
		t.Errorf("one sample = (%v, %v), want (5, 5)", p50, p99)
	}
	l.record(1)
	if p50, p99 := l.percentiles(); p50 != 1 || p99 != 5 {
		t.Errorf("two samples = (%v, %v), want p50=1 p99=5 (the old truncation reported the minimum as p99)", p50, p99)
	}
	var big latencyWindow
	for i := 1; i <= 100; i++ {
		big.record(float64(i))
	}
	if p50, p99 := big.percentiles(); p50 != 50 || p99 != 99 {
		t.Errorf("1..100 = (%v, %v), want (50, 99)", p50, p99)
	}
}
