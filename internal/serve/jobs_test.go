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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
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

// mustStore opens a Store over dir ("" = memory only).
func mustStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustJournal opens a Journal over dir.
func mustJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return jn
}

// tinyFigure is the figure job the job tests run: Fig 13 over nn at scale
// 0.01, whose 15 points (3 cores x 5 systems) simulate in well under a
// second.
func tinyFigure() JobSpec {
	return JobSpec{Figure: &FigureSpec{ID: "13", Scale: 0.01, Benchmarks: []string{"nn"}}}
}

// tinyFigurePoints is the number of points tinyFigure sweeps.
const tinyFigurePoints = 15

// tinyRef memoises one uninterrupted run of tinyFigure per test binary.
var tinyRef struct {
	sync.Mutex
	keys  []string          // the figure's point keys, sorted
	files map[string][]byte // each point's <key>.json, as the Store wrote it
	table []byte            // the figure's table, as JSON
}

// tinyReference runs tinyFigure once through a job on a disk Store and
// returns its point keys, their result files and its table's JSON. Tests
// seed cache directories from the files, so a point they do not mean to
// compute is a disk hit.
func tinyReference(t *testing.T) (keys []string, files map[string][]byte, table []byte) {
	t.Helper()
	tinyRef.Lock()
	defer tinyRef.Unlock()
	if tinyRef.files == nil {
		dir := t.TempDir()
		_, ts := newTestServer(t, Config{Store: mustStore(t, dir)})
		id := submitJobSpec(t, ts.URL, tinyFigure())
		waitJobState(t, ts.URL, id, JobDone)
		code, res, body := getJobResult(t, ts.URL, id)
		if code != http.StatusOK || res.Figure == nil {
			t.Fatalf("reference figure result = %d (%s)", code, body)
		}
		table, err := json.Marshal(res.Figure)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		var keys []string
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			key := strings.TrimSuffix(filepath.Base(p), ".json")
			keys = append(keys, key)
			files[key] = data
		}
		if len(keys) != tinyFigurePoints {
			t.Fatalf("reference run stored %d results, want %d", len(keys), tinyFigurePoints)
		}
		sort.Strings(keys)
		tinyRef.keys, tinyRef.files, tinyRef.table = keys, files, table
	}
	return tinyRef.keys, tinyRef.files, tinyRef.table
}

// seedCache writes the reference result files of keys into dir, as a
// process that finished those points would have left them.
func seedCache(t *testing.T, dir string, keys ...string) {
	t.Helper()
	_, files, _ := tinyReference(t)
	for _, key := range keys {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), files[key], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// poisonKey quarantines key in dir, as a point that panicked in a Store
// over dir would have: it leaves <key>.poison.json behind.
func poisonKey(t *testing.T, dir, key string) {
	t.Helper()
	_, err := mustStore(t, dir).Do(context.Background(), key, func() (system.Results, error) {
		return system.Results{}, fault.FromPanic(key, "injected simulator fault")
	})
	if pe, ok := fault.As(err); !ok || pe.Kind != fault.KindPanic {
		t.Fatalf("poisoning %s: err %v, want a panic", key, err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".poison.json")); err != nil {
		t.Fatal(err)
	}
}

// holdKey makes st's lookups of key wait until release is called: the test
// leads key's singleflight with a compute that blocks, and on release gives
// the key up as a cancelled leader, so a waiting sweep point takes it over
// and computes it. A figure job with key among its points stays running
// until release.
func holdKey(t *testing.T, st *Store, key string) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	held, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		st.Do(ctx, key, func() (system.Results, error) {
			close(held)
			<-ctx.Done()
			return system.Results{}, ctx.Err()
		})
	}()
	<-held
	var once sync.Once
	release = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(release)
	return release
}

// killQueued submits spec to a journaled server over cacheDir and
// journalDir and kills the server while the job waits for a worker: a /run
// whose stub Runner holds the only worker slot keeps it queued, so the kill
// lands before any of its points ran, whatever the scheduling. The journal
// then shows the job unfinished.
func killQueued(t *testing.T, cacheDir, journalDir string, spec JobSpec) string {
	t.Helper()
	started := make(chan struct{})
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		close(started)
		<-ctx.Done()
		return system.Results{}, ctx.Err()
	}
	h := NewServer(Config{Store: mustStore(t, cacheDir), Journal: mustJournal(t, journalDir), Workers: 1, Runner: runner})
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		body, _ := json.Marshal(JobRequest{Benchmark: "mv", Scale: 0.01})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the /run holding the worker never started")
	}
	id := submitJobSpec(t, ts.URL, spec)
	h.Kill() // crash emulation: no terminal state is journaled
	cancel() // the client goes away, so the stub gives the worker back
	<-runDone
	return id
}

func TestJournalRoundTrip(t *testing.T) {
	j := mustJournal(t, t.TempDir())
	spec := tinyFigure()
	spec.TimeoutMS = 1234
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
	table := &experiments.Table{Title: "T", Rows: [][]string{{"1"}}, Metrics: map[string]float64{"m": 2}}
	if err := j.JobResult("job1", JobResult{Figure: table}); err != nil {
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
	if rec.Result == nil || !reflect.DeepEqual(rec.Result.Figure, table) {
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
	j := mustJournal(t, dir)
	spec := tinyFigure()
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

// TestJobsKillRestartPoints: a server killed while POST /jobs also ran
// point lists leaves journals whose specs hold no figure, which decode
// leniently into an empty JobSpec. On restart an unfinished one must not
// reach the figure runner: it ends failed, with the validation error naming
// /run, and is journaled so. A finished one stays queryable, and its
// point-list result answers 410 like a lost result.
func TestJobsKillRestartPoints(t *testing.T) {
	dir := t.TempDir()
	fixtures := map[string]string{
		"pending": `{"v":1,"t":"job","id":"pending","spec":{"points":[{"benchmark":"nn"}]}}
{"v":1,"t":"state","state":"queued"}
{"v":1,"t":"state","state":"running"}
`,
		"finished": `{"v":1,"t":"job","id":"finished","spec":{"points":[{"benchmark":"nn","scale":0.05}]}}
{"v":1,"t":"state","state":"queued"}
{"v":1,"t":"state","state":"running"}
{"v":1,"t":"state","state":"done","progress":{"total":1,"started":1,"completed":1,"cached":0}}
{"v":1,"t":"result","result":{"points":[{"key":"k1","cached":false,"elapsed_ms":1.5,"results":{"Benchmark":"nn"}}]}}
`,
	}
	for id, lines := range fixtures {
		if err := os.WriteFile(filepath.Join(dir, id+journalSuffix), []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	start := func() (*Server, *httptest.Server) {
		h := NewServer(Config{Store: mustStore(t, ""), Journal: mustJournal(t, dir), Runner: markRunner(&calls)})
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return h, ts
	}

	for restart := 0; restart < 2; restart++ {
		h, ts := start()
		code, st := getJobStatus(t, ts.URL, "pending")
		if code != http.StatusOK || st.State != JobFailed || !st.Resumed || !strings.Contains(st.Error, "POST /run") {
			t.Errorf("restart %d: pending point-list job = %d %+v, want failed, resumed, naming POST /run", restart, code, st)
		}
		if code, _, body := getJobResult(t, ts.URL, "pending"); code != http.StatusInternalServerError {
			t.Errorf("restart %d: pending point-list result = %d (%s), want 500", restart, code, body)
		}
		if code, st := getJobStatus(t, ts.URL, "finished"); code != http.StatusOK || st.State != JobDone || st.Progress.Completed != 1 {
			t.Errorf("restart %d: finished point-list job = %d %+v, want done with its journaled progress", restart, code, st)
		}
		if code, _, body := getJobResult(t, ts.URL, "finished"); code != http.StatusGone {
			t.Errorf("restart %d: finished point-list result = %d (%s), want 410", restart, code, body)
		}
		if n := h.asyncResumed.Load(); n != 0 {
			t.Errorf("restart %d: resubmitted %d jobs, want none", restart, n)
		}
		rec, ok := recoverJob(t, mustJournal(t, dir), "pending")
		if !ok || rec.State != JobFailed || !strings.Contains(rec.Error, "POST /run") {
			t.Errorf("restart %d: journal holds %+v, want the pending job failed", restart, rec)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("recovery ran %d simulations, want none", calls.Load())
	}
}

// TestJobsFigureAsync drives the async job API end to end over a real
// figure sweep: submit, poll to done, fetch the table; resubmit, and the new
// job is served entirely from the cache with the identical table. The
// async counters surface in /metrics, /jobs/{id} paths are checked, and
// DELETE forgets a finished job.
func TestJobsFigureAsync(t *testing.T) {
	var calls atomic.Int64
	h, ts := newTestServer(t, Config{Runner: markRunner(&calls)})
	run := func() (string, JobStatus, *experiments.Table) {
		t.Helper()
		id := submitJobSpec(t, ts.URL, tinyFigure())
		st := waitJobState(t, ts.URL, id, JobDone)
		code, res, body := getJobResult(t, ts.URL, id)
		if code != http.StatusOK || res.Figure == nil {
			t.Fatalf("figure result = %d (%s)", code, body)
		}
		return id, st, res.Figure
	}

	id, st, first := run()
	if p := st.Progress; p.Total != tinyFigurePoints || p.Started != tinyFigurePoints || p.Completed != tinyFigurePoints || p.Cached != 0 || p.Failed != 0 {
		t.Errorf("figure progress %+v, want %d points all computed", p, tinyFigurePoints)
	}
	_, st, second := run()
	if p := st.Progress; p.Completed != tinyFigurePoints || p.Cached != tinyFigurePoints {
		t.Errorf("second figure job progress %+v, want all %d cached", p, tinyFigurePoints)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("second figure job diverged from the first:\nfirst  %+v\nsecond %+v", first, second)
	}
	if s := h.cfg.Store.Stats(); s.Misses != tinyFigurePoints {
		t.Errorf("store misses = %d, want exactly %d (second job from cache)", s.Misses, tinyFigurePoints)
	}
	if calls.Load() != 0 {
		t.Errorf("figure jobs ran Config.Runner %d times; a sweep computes with its own closure", calls.Load())
	}

	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "sfserve_async_jobs_submitted 2\n") {
		t.Errorf("metrics missing async submission counter:\n%s", m)
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
}

func TestJobsValidation(t *testing.T) {
	var calls atomic.Int64
	h, ts := newTestServer(t, Config{Runner: markRunner(&calls)})
	for name, spec := range map[string]JobSpec{
		"empty":             {},
		"unknown figure":    {Figure: &FigureSpec{ID: "99"}},
		"bad figure bench":  {Figure: &FigureSpec{ID: "13", Benchmarks: []string{"typo"}}},
		"bad figure scale":  {Figure: &FigureSpec{ID: "13", Scale: -1}},
		"bad figure sample": {Figure: &FigureSpec{ID: "13", Sample: &config.SampleParams{Intervals: -1}}},
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
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "bad request body") {
		t.Errorf("POST /jobs { = %d (%s), want 400 naming a bad request body", resp.StatusCode, data)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs = %d, want 405", resp.StatusCode)
	}
	h.jobsMu.Lock()
	n := len(h.jobs)
	h.jobsMu.Unlock()
	if n != 0 || calls.Load() != 0 {
		t.Errorf("invalid specs created %d jobs and ran %d simulations", n, calls.Load())
	}

	h.Drain()
	if resp, data := postJobs(t, ts.URL, tinyFigure()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining POST /jobs = %d (%s), want 503", resp.StatusCode, data)
	}
}

// TestJobsAsyncPoints: POST /jobs no longer runs point lists. A points body
// is a 400 naming POST /run; it creates no job, counts no async submission
// and simulates nothing. The same point posted to /run is computed.
func TestJobsAsyncPoints(t *testing.T) {
	var calls atomic.Int64
	h, ts := newTestServer(t, Config{Runner: markRunner(&calls)})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"points":[{"benchmark":"nn","scale":0.05}]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "POST /run") {
		t.Errorf("POST /jobs with points = %d (%s), want 400 naming POST /run", resp.StatusCode, data)
	}
	h.jobsMu.Lock()
	n := len(h.jobs)
	h.jobsMu.Unlock()
	if n != 0 || calls.Load() != 0 {
		t.Errorf("a points body created %d jobs and ran %d simulations", n, calls.Load())
	}
	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "sfserve_async_jobs_submitted 0\n") {
		t.Errorf("a points body counted as an async submission:\n%s", m)
	}
	if resp, data := postRun(t, ts.URL, JobRequest{Benchmark: "nn", Scale: 0.05}); resp.StatusCode != http.StatusOK {
		t.Errorf("POST /run of the same point = %d (%s), want 200", resp.StatusCode, data)
	}
	if calls.Load() != 1 {
		t.Errorf("/run ran %d simulations, want 1", calls.Load())
	}
}

// TestJobsCancel: DELETE on a running figure job cancels its sweep and the
// job terminates as cancelled; its result endpoint reports 410. The job
// cannot finish first: all its points but one are on disk, and the lookup
// of that one waits behind a leader the test holds.
func TestJobsCancel(t *testing.T) {
	keys, _, _ := tinyReference(t)
	dir := t.TempDir()
	seedCache(t, dir, keys[1:]...)
	st := mustStore(t, dir)
	holdKey(t, st, keys[0])
	_, ts := newTestServer(t, Config{Store: st})
	id := submitJobSpec(t, ts.URL, tinyFigure())
	waitJobState(t, ts.URL, id, JobRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d, want 202", resp.StatusCode)
	}
	waitJobState(t, ts.URL, id, JobCancelled)
	if code, _, _ := getJobResult(t, ts.URL, id); code != http.StatusGone {
		t.Errorf("cancelled job result = %d, want 410", code)
	}
	if s := st.Stats(); s.Misses != 0 {
		t.Errorf("store stats %+v: the cancelled job computed points", s)
	}
}

// TestJobsBackpressure: async jobs and /run share one queue bound. With the
// one worker held by a blocked /run and the one queue slot held by a figure
// job waiting behind it, a further POST /jobs and POST /run both answer
// 429, both count as rejected, and the held requests then finish.
func TestJobsBackpressure(t *testing.T) {
	keys, _, _ := tinyReference(t)
	dir := t.TempDir()
	seedCache(t, dir, keys...) // the figure job computes nothing
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		started <- struct{}{}
		select {
		case <-block:
			return system.Results{Benchmark: bench}, nil
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Store: mustStore(t, dir), Workers: 1, QueueDepth: 1, Runner: runner})
	runCode := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(JobRequest{Benchmark: "nn", Scale: 0.05})
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			runCode <- 0
			return
		}
		resp.Body.Close()
		runCode <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the /run never started")
	}
	// The figure job holds the queue slot from the moment it is accepted.
	id := submitJobSpec(t, ts.URL, tinyFigure())

	// A request that is not refused would wait behind the held ones; the
	// client's timeout turns that into a failure instead of a hang.
	client := &http.Client{Timeout: 5 * time.Second}
	for _, req := range []struct {
		path string
		body any
	}{
		{"/jobs", tinyFigure()},
		{"/run", JobRequest{Benchmark: "conv3d", Scale: 0.05}},
	} {
		path := req.path
		body, _ := json.Marshal(req.body)
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s on a full queue: %v, want 429", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("POST %s on a full queue = %d (%s), want 429", path, resp.StatusCode, data)
		}
	}
	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "sfserve_jobs_rejected 2\n") {
		t.Errorf("metrics do not count both rejections:\n%s", m)
	}

	close(block)
	if code := <-runCode; code != http.StatusOK {
		t.Errorf("held /run = %d, want 200", code)
	}
	waitJobState(t, ts.URL, id, JobDone)
}

// TestJobsKillRestartFigure is the crash-resume test: a figure job is
// killed while it waits for a worker, the cache directory then holds k of
// its points' results (what the crashed process had finished), and a new
// server over the same journal and cache resumes the job, computing only
// the other points. The resumed table is byte-identical to an
// uninterrupted run's, and the journal records the job only, never its
// points.
func TestJobsKillRestartFigure(t *testing.T) {
	const k = 5
	keys, _, want := tinyReference(t)
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	id := killQueued(t, cacheDir, journalDir, tinyFigure())
	if rec, ok := recoverJob(t, mustJournal(t, journalDir), id); !ok || !rec.Resumable() {
		t.Fatalf("journal after kill: ok=%v state=%s, want a resumable job", ok, rec.State)
	}
	if n := diskEntries(t, cacheDir); n != 0 {
		t.Fatalf("store holds %d results after the kill, want none (the job never ran)", n)
	}
	seedCache(t, cacheDir, keys[:k]...)

	st := mustStore(t, cacheDir)
	h, ts := newTestServer(t, Config{Store: st, Journal: mustJournal(t, journalDir)})
	got := waitJobState(t, ts.URL, id, JobDone)
	if !got.Resumed {
		t.Error("resumed job not flagged Resumed")
	}
	if p := got.Progress; p.Completed != tinyFigurePoints || p.Cached != k {
		t.Errorf("resumed progress %+v, want %d completed, %d of them cached", p, tinyFigurePoints, k)
	}
	if s := st.Stats(); s.Misses != tinyFigurePoints-k || s.DiskHits != k {
		t.Errorf("store stats %+v, want %d computed and %d disk hits", s, tinyFigurePoints-k, k)
	}
	code, res, body := getJobResult(t, ts.URL, id)
	if code != http.StatusOK || res.Figure == nil {
		t.Fatalf("resumed result = %d (%s)", code, body)
	}
	if gotJSON, _ := json.Marshal(res.Figure); !bytes.Equal(gotJSON, want) {
		t.Errorf("resumed figure is not byte-identical to the uninterrupted run:\nresumed       %s\nuninterrupted %s", gotJSON, want)
	}

	if err := h.WaitJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(journalDir, id+journalSuffix))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || (rec.T != "job" && rec.T != "state" && rec.T != "result") {
			t.Errorf("journal line %q: want only job, state and result records (err %v)", line, err)
		}
	}
}

// TestJobsKillRestartBeyondQueue: a journal can hold more resumable jobs
// than the queue admits (Workers+QueueDepth). A restarted server accepted
// them all before the crash, so it refuses none: each waits for a queue
// ticket like any other job, counts against the bound while it waits, and
// runs to done. The running job holds its worker until the test releases
// the one point its sweep cannot find on disk.
func TestJobsKillRestartBeyondQueue(t *testing.T) {
	const workers, depth = 1, 1
	keys, _, _ := tinyReference(t)
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	seedCache(t, cacheDir, keys[1:]...)
	jn := mustJournal(t, journalDir)
	var ids []string
	for i := 0; i < workers+depth+1; i++ {
		id := fmt.Sprintf("job%d", i)
		if err := jn.JobCreated(id, tinyFigure()); err != nil {
			t.Fatal(err)
		}
		if err := jn.JobState(id, JobStatus{State: JobRunning}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	st := mustStore(t, cacheDir)
	release := holdKey(t, st, keys[0])
	h, ts := newTestServer(t, Config{Workers: workers, QueueDepth: depth, Store: st, Journal: jn})
	// Every ticket is held by a resumed job and the third waits for one, so
	// a new job is refused.
	waitFor(t, func() bool { return len(h.queue) == cap(h.queue) && h.queued.Load() == depth+1 })
	if resp, data := postJobs(t, ts.URL, tinyFigure()); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("POST /jobs behind resumed jobs = %d (%s), want 429", resp.StatusCode, data)
	}
	release()
	for _, id := range ids {
		if st := waitJobState(t, ts.URL, id, JobDone); !st.Resumed {
			t.Errorf("job %s not flagged Resumed", id)
		}
	}
	if s := st.Stats(); s.Misses != 1 {
		t.Errorf("store stats %+v, want the held point computed once for all %d jobs", s, len(ids))
	}
	if got := h.asyncResumed.Load(); got != uint64(len(ids)) {
		t.Errorf("resumed %d jobs, want %d", got, len(ids))
	}
}

// TestJobsRestartStatus: a finished job's status survives a restart
// verbatim — progress counts and fault included — for a keep-going figure
// job that skips a quarantined point, and for a job that is not keep-going,
// which fails with that point's fault. A done keep-going job estimates no
// time remaining.
func TestJobsRestartStatus(t *testing.T) {
	keys, _, _ := tinyReference(t)
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	// keys[0] is quarantined and keys[1] is computed, so a wall time feeds
	// the estimate; the rest are disk hits.
	seedCache(t, cacheDir, keys[2:]...)
	poisonKey(t, cacheDir, keys[0])
	newJournalServer := func() (*Server, *httptest.Server) {
		h := NewServer(Config{Store: mustStore(t, cacheDir), Journal: mustJournal(t, journalDir)})
		return h, httptest.NewServer(h)
	}

	hA, tsA := newJournalServer()
	keepSpec := tinyFigure()
	keepSpec.KeepGoing = true
	keep := submitJobSpec(t, tsA.URL, keepSpec)
	keepSt := waitJobState(t, tsA.URL, keep, JobDone)
	failed := submitJobSpec(t, tsA.URL, tinyFigure())
	before := map[string]JobStatus{keep: keepSt, failed: waitJobState(t, tsA.URL, failed, JobFailed)}
	if p := keepSt.Progress; p.Total != tinyFigurePoints || p.Completed != tinyFigurePoints-1 || p.Cached != tinyFigurePoints-2 || p.Failed != 1 || p.EstRemainingMS != 0 {
		t.Errorf("done keep-going progress %+v, want 1 computed, %d cached, 1 failed, nothing remaining", p, tinyFigurePoints-2)
	}
	if st := before[failed]; st.Fault == nil || st.Fault.Kind != fault.KindPanic || !st.Fault.Quarantined || st.Fault.Key != keys[0] || st.Progress.Failed < 1 {
		t.Errorf("failed job status %+v, want the quarantined panic of %s", st, keys[0])
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

// TestJobsBodyTooLarge: a POST /jobs body over maxBodyBytes is refused with
// 413 and no job is created.
func TestJobsBodyTooLarge(t *testing.T) {
	h, ts := newTestServer(t, Config{})
	bench := `"nn",`
	body := `{"figure":{"id":"13","benchmarks":[` + strings.Repeat(bench, maxBodyBytes/len(bench)+1) + `"nn"]}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /jobs body = %d, want 413", resp.StatusCode)
	}
	h.jobsMu.Lock()
	n := len(h.jobs)
	h.jobsMu.Unlock()
	if n != 0 {
		t.Errorf("%d jobs created from a refused body", n)
	}
}
