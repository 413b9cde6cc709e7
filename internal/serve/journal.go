package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"streamfloat/internal/fault"
)

// Journal is the crash-safe job journal: one append-only JSON-lines file
// per async job, recording the job's spec, its state transitions, and — for
// a finished job — its terminal status and result. It records only what the
// content-addressed result cache cannot: which jobs exist and how each one
// ended. Resuming a sweep needs nothing else, because the Store is the
// resume state: it persists each completed point's Results as <key>.json and
// each deterministic failure as <key>.poison.json, so after a crash or
// SIGKILL Recover returns every journaled job, unfinished ones are re-run,
// and their completed and quarantined points replay from the Store instead
// of re-simulating.
//
// Records follow the Store's conventions: a versioned envelope
// (mis-versioned records are skipped, not misread) and safeKey-validated ids
// (a job id that could navigate the filesystem never reaches filepath.Join).
//
// All methods are safe for concurrent use. Appends are O_APPEND single
// writes followed by fsync, so a crash can lose at most the record being
// written — which parses as a truncated trailing line and is ignored by
// Recover (the transition simply re-runs).
type Journal struct {
	dir string
	mu  sync.Mutex
}

// journalVersion tags the journal record envelope. Bumping it orphans old
// records (they are skipped on recovery) instead of misreading them.
const journalVersion = 1

// journalSuffix names journal files: <dir>/<jobid><journalSuffix>.
const journalSuffix = ".journal"

// journalRecord is one JSON line of a job's journal file.
type journalRecord struct {
	V int    `json:"v"`
	T string `json:"t"` // "job", "state", "result" ("point" is skipped)

	// T == "job": the job's identity and full spec (always the first line).
	ID   string   `json:"id,omitempty"`
	Spec *JobSpec `json:"spec,omitempty"`

	// T == "state": a state transition. A terminal one also carries the
	// job's final fault and progress.
	State    JobState          `json:"state,omitempty"`
	Error    string            `json:"error,omitempty"`
	Fault    *fault.PointError `json:"fault,omitempty"`
	Progress *JobProgress      `json:"progress,omitempty"`

	// T == "point": one completed point's key (see PointDone).
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	// T == "result": the finished job's result payload.
	Result *JobResult `json:"result,omitempty"`
}

// OpenJournal opens (creating if needed) a journal directory.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: journal dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// path maps a job id to its journal file, or an error for ids that are not
// safe as file names.
func (j *Journal) path(id string) (string, error) {
	if !safeKey(id) {
		return "", fmt.Errorf("serve: unsafe journal job id %q", id)
	}
	return filepath.Join(j.dir, id+journalSuffix), nil
}

// append writes one record to the job's journal file and syncs it.
func (j *Journal) append(id string, rec journalRecord) error {
	rec.V = journalVersion
	path, err := j.path(id)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// JobCreated journals a new job: its id, spec, and initial queued state.
func (j *Journal) JobCreated(id string, spec JobSpec) error {
	if err := j.append(id, journalRecord{T: "job", ID: id, Spec: &spec}); err != nil {
		return err
	}
	return j.append(id, journalRecord{T: "state", State: JobQueued})
}

// JobState journals a state transition. A terminal transition also
// journals the job's error, fault and final progress, so a restarted server
// reports the finished job's status verbatim.
func (j *Journal) JobState(id string, st JobStatus) error {
	rec := journalRecord{T: "state", State: st.State, Error: st.Error}
	if st.State.terminal() {
		rec.Fault, rec.Progress = st.Fault, &st.Progress
	}
	return j.append(id, rec)
}

// PointDone appends one point record: a completed point's canonical cache
// key, and whether it was served from the cache. No job writes it — the
// Store already holds every completed point — and Recover skips it; it
// remains as the unit benchmark/ladder.go times one fsync'd append with.
func (j *Journal) PointDone(id, key string, cached bool) error {
	return j.append(id, journalRecord{T: "point", Key: key, Cached: cached})
}

// JobResult journals the finished job's result payload, so status queries
// keep serving it after a restart.
func (j *Journal) JobResult(id string, res JobResult) error {
	return j.append(id, journalRecord{T: "result", Result: &res})
}

// Remove deletes a job's journal file (used when a cancelled job is
// deleted). Missing files are not an error.
func (j *Journal) Remove(id string) error {
	path, err := j.path(id)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// RecoveredJob is one journaled job as reconstructed by Recover.
type RecoveredJob struct {
	ID    string
	Spec  JobSpec
	State JobState // last journaled state; non-terminal jobs should resume
	Error string
	// Fault and Progress are a finished job's final status, as journaled
	// with its terminal state.
	Fault    *fault.PointError
	Progress JobProgress
	// Result is the journaled final result, when the job finished.
	Result *JobResult
}

// Resumable reports whether the job was interrupted before reaching a
// terminal state and should be re-run on recovery.
func (r RecoveredJob) Resumable() bool {
	return r.State != JobDone && r.State != JobFailed && r.State != JobCancelled
}

// Recover replays every journal file in the directory and reconstructs the
// jobs it describes, sorted by id. Truncated trailing lines (a crash mid-
// append) and mis-versioned records are skipped; a file whose first valid
// record is not a job record is ignored entirely, and record types Recover
// does not read (point records, and the poison records older journals
// carry) are skipped.
func (j *Journal) Recover() ([]RecoveredJob, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var jobs []RecoveredJob
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, journalSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, journalSuffix)
		rec, ok, err := j.recoverOne(id)
		if err != nil {
			return nil, fmt.Errorf("serve: journal %s: %w", name, err)
		}
		if ok {
			jobs = append(jobs, rec)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, nil
}

// recoverOne replays one job's journal file.
func (j *Journal) recoverOne(id string) (RecoveredJob, bool, error) {
	path, err := j.path(id)
	if err != nil {
		return RecoveredJob{}, false, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return RecoveredJob{}, false, err
	}
	job := RecoveredJob{ID: id}
	seenJob := false
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A truncated trailing line from a crash mid-append: everything
			// before it stands, the interrupted record simply re-runs.
			continue
		}
		if rec.V != journalVersion {
			continue
		}
		switch rec.T {
		case "job":
			if rec.Spec != nil && rec.ID == id {
				job.Spec = *rec.Spec
				seenJob = true
			}
		case "state":
			job.State, job.Error, job.Fault, job.Progress = rec.State, rec.Error, rec.Fault, JobProgress{}
			if rec.Progress != nil {
				job.Progress = *rec.Progress
			}
		case "result":
			job.Result = rec.Result
		}
	}
	if !seenJob {
		return RecoveredJob{}, false, nil
	}
	return job, true, nil
}
