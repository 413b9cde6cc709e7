// Package serve is the job layer over the sweep machinery: a
// content-addressed result cache (Store) and an HTTP simulation service
// (Server, mounted by cmd/sfserve). Because every simulation is
// deterministic (see the determinism suite), Results are perfectly
// memoizable by their canonical key — hash of (encoded config, benchmark,
// scale, resolved sanitize mode), computed by system.CacheKey — so repeated
// figure regenerations and concurrent identical jobs cost one simulation.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"streamfloat/internal/fault"
	"streamfloat/internal/system"
)

// DefaultMaxEntries bounds the in-memory cache when NewStore is given a
// non-positive limit. A Results is a few kB, so the default stays small.
const DefaultMaxEntries = 4096

// Store is a content-addressed simulation-result cache: an in-memory LRU in
// front of an optional on-disk JSON store, with singleflight deduplication so
// concurrent requests for the same key share one computation. Keys are
// opaque hex strings (system.CacheKey); invalidation is by key change only —
// any config/benchmark/scale/encoding-version difference produces a
// different key, and stale entries are simply never looked up again.
//
// Store implements experiments.ResultCache. All methods are safe for
// concurrent use.
type Store struct {
	dir        string // "" = memory only
	maxEntries int

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> element holding *entry
	lru      *list.List               // front = most recently used
	inflight map[string]*call
	// poisoned holds the quarantine negative entries: keys whose computation
	// failed deterministically (panic, sanitizer violation). The simulation
	// is a pure function of the key, so recomputing a poisoned key can only
	// crash the same way — Do replays the recorded failure instead. Entries
	// are rare (each is a simulator bug) and never evicted.
	poisoned map[string]*fault.PointError

	hits       atomic.Uint64 // served from memory
	diskHits   atomic.Uint64 // served from the on-disk store
	misses     atomic.Uint64 // computed
	dedups     atomic.Uint64 // waited on another caller's computation
	diskErrs   atomic.Uint64 // best-effort disk writes/reads that failed
	poisonHits atomic.Uint64 // failures replayed from quarantine entries
}

type entry struct {
	key string
	res system.Results
}

// call is one in-flight computation; followers wait on done.
type call struct {
	done chan struct{}
	res  system.Results
	err  error
}

// NewStore creates a Store holding at most maxEntries results in memory
// (<= 0 picks DefaultMaxEntries). A non-empty dir enables the on-disk layer:
// one <key>.json file per result, shared across processes (sfexp -cache and
// sfserve point at the same directory). The directory is created if missing.
func NewStore(maxEntries int, dir string) (*Store, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return &Store{
		dir:        dir,
		maxEntries: maxEntries,
		entries:    map[string]*list.Element{},
		lru:        list.New(),
		inflight:   map[string]*call{},
		poisoned:   map[string]*fault.PointError{},
	}, nil
}

// Get returns the cached Results for key from memory or disk, without
// computing anything.
func (s *Store) Get(key string) (system.Results, bool) {
	s.mu.Lock()
	res, ok := s.memGetLocked(key)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return res, true
	}
	if res, ok := s.diskGet(key); ok {
		s.diskHits.Add(1)
		s.put(key, res)
		return res, true
	}
	return system.Results{}, false
}

// Do returns the cached Results for key, or runs compute — once across all
// concurrent callers of the key — caches its result, and returns it.
// Compute errors are not cached. If the caller's ctx ends while waiting on
// another caller's computation, Do returns ctx's error; if the computing
// leader fails with a cancellation error but this caller's ctx is still
// live, the caller retries (takes over as leader) instead of inheriting the
// leader's cancellation.
func (s *Store) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		s.mu.Lock()
		if res, ok := s.memGetLocked(key); ok {
			s.mu.Unlock()
			s.hits.Add(1)
			return res, nil
		}
		if pe, ok := s.poisoned[key]; ok {
			s.mu.Unlock()
			s.poisonHits.Add(1)
			return system.Results{}, pe.Served()
		}
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			s.dedups.Add(1)
			select {
			case <-c.done:
			case <-ctx.Done():
				return system.Results{}, ctx.Err()
			}
			if c.err == nil {
				return c.res, nil
			}
			if isCtxErr(c.err) && ctx.Err() == nil {
				continue // leader died of its own cancellation; take over
			}
			return system.Results{}, c.err
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		if res, ok := s.diskGet(key); ok {
			s.diskHits.Add(1)
			c.res = res
		} else if pe, ok := s.diskPoisonGet(key); ok {
			// A previous process quarantined this key: replay its failure and
			// promote the entry to memory so followers skip the disk read.
			s.poisonHits.Add(1)
			c.err = pe.Served()
			s.mu.Lock()
			s.poisoned[key] = pe
			s.mu.Unlock()
		} else {
			c.res, c.err = compute()
			if c.err == nil {
				s.misses.Add(1)
				s.diskPut(key, c.res)
			} else if pe, ok := fault.As(c.err); ok && pe.Deterministic() && !pe.Quarantined {
				// A fresh deterministic failure (panic, violation): record the
				// negative entry so this key is never recomputed. The computing
				// caller keeps the original error with its stack; later hits
				// get the Served copy.
				s.quarantine(key, pe)
			}
		}
		s.mu.Lock()
		delete(s.inflight, key)
		if c.err == nil {
			s.memPutLocked(key, c.res)
		}
		s.mu.Unlock()
		close(c.done)
		return c.res, c.err
	}
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error — the leader's failure modes that a still-live follower
// should not inherit.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// quarantine records a deterministic point failure as a negative cache
// entry under key: subsequent Do calls for the key replay the failure (as a
// Served copy, marked Quarantined) instead of recomputing a simulation that
// can only crash the same way. With a disk layer, the entry persists as
// <key>.poison.json and survives restarts — it is the record a resumed
// sweep skips the point by.
//
// Only Do's computing leader calls it, so the key is never already
// quarantined: every later caller finds the entry before computing.
func (s *Store) quarantine(key string, pe *fault.PointError) {
	cp := *pe
	if cp.Key == "" {
		cp.Key = key
	}
	s.mu.Lock()
	s.poisoned[key] = &cp
	s.mu.Unlock()
	s.diskPoisonPut(key, &cp)
}

// Stats reports the cache counters accumulated so far.
type StoreStats struct {
	Hits       uint64 `json:"hits"`        // served from memory
	DiskHits   uint64 `json:"disk_hits"`   // served from the on-disk store
	Misses     uint64 `json:"misses"`      // computed
	Dedups     uint64 `json:"dedups"`      // shared another caller's computation
	DiskErrs   uint64 `json:"disk_errs"`   // failed best-effort disk operations
	Entries    int    `json:"entries"`     // current in-memory entry count
	Poisoned   int    `json:"poisoned"`    // quarantine negative entries in memory
	PoisonHits uint64 `json:"poison_hits"` // failures replayed from quarantine
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	n := s.lru.Len()
	p := len(s.poisoned)
	s.mu.Unlock()
	return StoreStats{
		Hits:       s.hits.Load(),
		DiskHits:   s.diskHits.Load(),
		Misses:     s.misses.Load(),
		Dedups:     s.dedups.Load(),
		DiskErrs:   s.diskErrs.Load(),
		Entries:    n,
		Poisoned:   p,
		PoisonHits: s.poisonHits.Load(),
	}
}

// put inserts without going through Do (used by Get's disk-promotion path).
func (s *Store) put(key string, res system.Results) {
	s.mu.Lock()
	s.memPutLocked(key, res)
	s.mu.Unlock()
}

func (s *Store) memGetLocked(key string) (system.Results, bool) {
	el, ok := s.entries[key]
	if !ok {
		return system.Results{}, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry).res, true
}

func (s *Store) memPutLocked(key string, res system.Results) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry).res = res
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, res: res})
	for s.lru.Len() > s.maxEntries {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*entry).key)
	}
}

// diskEntryVersion tags the on-disk envelope layout. Bumping it orphans old
// files (they re-miss and are rewritten) instead of misreading them.
const diskEntryVersion = 1

// diskEntry is the on-disk JSON envelope. Carrying the key inside the file
// lets diskGet reject entries that do not actually belong to the key being
// looked up: a truncated, overwritten, or mis-renamed file (or degenerate
// JSON like "null" or "{}", which unmarshals cleanly into a bare Results)
// degrades to a cache miss instead of silently serving zero-valued results.
type diskEntry struct {
	V       int            `json:"v"`
	Key     string         `json:"key"`
	Results system.Results `json:"results"`
}

// safeKey reports whether a key may be used as a cache file name. Real keys
// are system.CacheKey hex digests; the Store API accepts arbitrary strings,
// and anything that could navigate the filesystem (path separators, "..",
// drive letters) must never reach filepath.Join — an unsafe key simply
// bypasses the disk layer and lives in memory only.
func safeKey(key string) bool {
	if key == "" || len(key) > 255 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return key != "." && key != ".." && !strings.Contains(key, "..")
}

// diskPath maps a key to its JSON file, or "" when the key is unsafe as a
// file name (the disk layer is skipped for it).
func (s *Store) diskPath(key string) string {
	if !safeKey(key) {
		return ""
	}
	return filepath.Join(s.dir, key+".json")
}

// diskGet loads a result from the on-disk layer. Unreadable, corrupt, or
// wrong-key files count as misses (and bump the disk-error counter) — the
// entry is recomputed and rewritten.
func (s *Store) diskGet(key string) (system.Results, bool) {
	if s.dir == "" {
		return system.Results{}, false
	}
	path := s.diskPath(key)
	if path == "" {
		return system.Results{}, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.diskErrs.Add(1)
		}
		return system.Results{}, false
	}
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil || ent.V != diskEntryVersion || ent.Key != key {
		s.diskErrs.Add(1)
		return system.Results{}, false
	}
	return ent.Results, true
}

// poisonEntry is the on-disk quarantine envelope (<key>.poison.json), with
// the same key-echo corruption defense as diskEntry.
type poisonEntry struct {
	V     int               `json:"v"`
	Key   string            `json:"key"`
	Fault *fault.PointError `json:"fault"`
}

// poisonPath maps a key to its quarantine file, or "".
func (s *Store) poisonPath(key string) string {
	if s.dir == "" || !safeKey(key) {
		return ""
	}
	return filepath.Join(s.dir, key+".poison.json")
}

// diskPoisonGet loads a quarantine entry from disk. Corrupt or wrong-key
// files count as absent (and bump the disk-error counter).
func (s *Store) diskPoisonGet(key string) (*fault.PointError, bool) {
	path := s.poisonPath(key)
	if path == "" {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.diskErrs.Add(1)
		}
		return nil, false
	}
	var ent poisonEntry
	if err := json.Unmarshal(data, &ent); err != nil ||
		ent.V != diskEntryVersion || ent.Key != key ||
		ent.Fault == nil || !ent.Fault.Kind.Deterministic() {
		s.diskErrs.Add(1)
		return nil, false
	}
	return ent.Fault, true
}

// diskPoisonPut persists a quarantine entry, best-effort, via temp + rename
// like diskPut.
func (s *Store) diskPoisonPut(key string, pe *fault.PointError) {
	path := s.poisonPath(key)
	if path == "" {
		return
	}
	data, err := json.Marshal(poisonEntry{V: diskEntryVersion, Key: key, Fault: pe})
	if err != nil {
		s.diskErrs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(s.dir, key+".poison.tmp*")
	if err != nil {
		s.diskErrs.Add(1)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.diskErrs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.diskErrs.Add(1)
	}
}

// diskPut persists a result, best-effort: a full disk or unwritable
// directory degrades the store to memory-only for that entry rather than
// failing the simulation that produced it. Writes go through a temp file +
// rename so concurrent processes never observe a partial JSON.
func (s *Store) diskPut(key string, res system.Results) {
	if s.dir == "" {
		return
	}
	path := s.diskPath(key)
	if path == "" {
		return
	}
	data, err := json.Marshal(diskEntry{V: diskEntryVersion, Key: key, Results: res})
	if err != nil {
		s.diskErrs.Add(1)
		return
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		s.diskErrs.Add(1)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.diskErrs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.diskErrs.Add(1)
	}
}
