// Package serve is the job layer over the sweep machinery: a
// content-addressed result cache (Store) and an HTTP simulation service
// (Server, mounted by cmd/sfserve). Because every simulation is
// deterministic (see the determinism suite), Results are perfectly
// memoizable by their canonical key — hash of (encoded config, benchmark,
// scale, resolved sanitize mode), computed by system.CacheKey — so repeated
// figure regenerations and concurrent identical jobs cost one simulation.
package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
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
// front of an optional on-disk store, with singleflight deduplication so
// concurrent requests for the same key share one computation. Keys are
// opaque hex strings (system.CacheKey); invalidation is by key change only —
// any config/benchmark/scale/encoding-version difference produces a
// different key, and stale entries are simply never looked up again.
//
// Its unit is the encoded entry: a point's Results are encoded once, when
// they are stored, and those bytes are what the disk layer holds and what
// POST /run splices into its reply. Callers that want the Results get
// them decoded, once per entry, from bytes this process did not compute.
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

	hits          atomic.Uint64 // served from memory
	diskHits      atomic.Uint64 // served from the on-disk store
	misses        atomic.Uint64 // computed
	dedups        atomic.Uint64 // waited on another caller's computation
	diskErrs      atomic.Uint64 // best-effort disk writes/reads that failed
	poisonHits    atomic.Uint64 // failures replayed from quarantine entries
	panics        atomic.Uint64 // fresh deterministic failures a leader's compute contained
	watchdogKills atomic.Uint64 // leader computes killed by the stall watchdog
}

// entry is one cached point: its result file (the envelope below) and,
// inside it, the Results encoded as /run writes them (writeJSON's
// settings, no trailing newline), next to the decoded Results. An entry
// read from disk holds only the bytes until a caller asks for the
// Results; results decodes them once.
type entry struct {
	key  string
	file []byte // the envelope; nil when the Results do not encode (see newEntry)
	enc  []byte // the results part of file
	once sync.Once
	res  system.Results
	err  error // decode failure of enc
}

// newEntry encodes Results this process computed. Results that do not
// encode (a NaN statistic) leave the entry without bytes: callers that
// want Results still get them, but the entry is never written to disk and
// /run reports it as a server error.
func newEntry(key string, res system.Results) *entry {
	e := &entry{key: key, res: res}
	e.once.Do(func() {}) // res is already decoded
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if enc.Encode(res) == nil {
		e.file, e.enc = envelope(key, bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	return e
}

// results returns the entry's Results, decoding enc on first use.
func (e *entry) results() (system.Results, error) {
	e.once.Do(func() {
		e.err = json.Unmarshal(e.enc, &e.res)
	})
	return e.res, e.err
}

// call is one in-flight computation; followers wait on done.
type call struct {
	done chan struct{}
	e    *entry
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
	e, ok := s.memGetLocked(key)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else if e, ok = s.diskGet(key); ok {
		s.diskHits.Add(1)
		s.mu.Lock()
		s.memPutLocked(e)
		s.mu.Unlock()
	} else {
		return system.Results{}, false
	}
	res, err := s.results(e)
	return res, err == nil
}

// Do returns the cached Results for key, or runs compute — once across all
// concurrent callers of the key — caches its result, and returns it.
// Compute errors are not cached. If the caller's ctx ends while waiting on
// another caller's computation, Do returns ctx's error; if the computing
// leader fails with a cancellation error but this caller's ctx is still
// live, the caller retries (takes over as leader) instead of inheriting the
// leader's cancellation.
func (s *Store) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	e, err := s.lookup(ctx, key, compute)
	if err != nil {
		return system.Results{}, err
	}
	return s.results(e)
}

// lookup is the Store's one lookup — memory, quarantine, singleflight,
// disk, then compute — behind Do and the server's runPoint. It returns the
// point's entry: the encoded bytes a /run reply splices, and the Results
// (through results) for everyone else. A memory hit allocates nothing
// (TestStoreBytesHitZeroAlloc).
//
// compute must be guarded (fault.Guard), so that a panic or a stall
// arrives as a typed PointError. lookup counts the faults only the
// computing leader contains: singleflight followers share its error, and
// replays from quarantine are not new faults.
func (s *Store) lookup(ctx context.Context, key string, compute func() (system.Results, error)) (*entry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		s.mu.Lock()
		if e, ok := s.memGetLocked(key); ok {
			s.mu.Unlock()
			s.hits.Add(1)
			return e, nil
		}
		if pe, ok := s.poisoned[key]; ok {
			s.mu.Unlock()
			s.poisonHits.Add(1)
			return nil, pe.Served()
		}
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			s.dedups.Add(1)
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err == nil {
				return c.e, nil
			}
			if isCtxErr(c.err) && ctx.Err() == nil {
				continue // leader died of its own cancellation; take over
			}
			return nil, c.err
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		if e, ok := s.diskGet(key); ok {
			s.diskHits.Add(1)
			c.e = e
		} else if pe, ok := s.diskPoisonGet(key); ok {
			// A previous process quarantined this key: replay its failure and
			// promote the entry to memory so followers skip the disk read.
			s.poisonHits.Add(1)
			c.err = pe.Served()
			s.mu.Lock()
			s.poisoned[key] = pe
			s.mu.Unlock()
		} else {
			var res system.Results
			res, c.err = compute()
			if c.err == nil {
				s.misses.Add(1)
				c.e = newEntry(key, res)
				s.diskPut(c.e)
			} else if pe, ok := fault.As(c.err); ok {
				if pe.Stuck {
					s.watchdogKills.Add(1)
				}
				if pe.Deterministic() && !pe.Quarantined {
					// A fresh deterministic failure (panic, violation): record
					// the negative entry so this key is never recomputed. The
					// computing caller keeps the original error with its stack;
					// later hits get the Served copy.
					s.panics.Add(1)
					s.quarantine(key, pe)
				}
			}
		}
		s.mu.Lock()
		delete(s.inflight, key)
		if c.err == nil {
			s.memPutLocked(c.e)
		}
		s.mu.Unlock()
		close(c.done)
		return c.e, c.err
	}
}

// results returns e's Results, decoding them on first use. Bytes that
// passed the checksum yet do not decode can only come from a writer other
// than this Store: the entry is dropped from memory and disk, so the next
// lookup recomputes the point, and this caller gets the error.
func (s *Store) results(e *entry) (system.Results, error) {
	res, err := e.results()
	if err == nil {
		return res, nil
	}
	s.diskErrs.Add(1)
	s.mu.Lock()
	if el, ok := s.entries[e.key]; ok && el.Value.(*entry) == e {
		s.lru.Remove(el)
		delete(s.entries, e.key)
	}
	s.mu.Unlock()
	if s.dir != "" {
		if path := s.diskPath(e.key); path != "" {
			os.Remove(path)
		}
	}
	return system.Results{}, fmt.Errorf("serve: cached entry %s does not decode: %w", e.key, err)
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
// Only lookup's computing leader calls it, so the key is never already
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
	// Panics and WatchdogKills count the faults computes contained: fresh
	// deterministic failures (panics, sanitizer violations) and stall
	// watchdog kills, each once, by the caller that ran the compute.
	Panics        uint64 `json:"panics"`
	WatchdogKills uint64 `json:"watchdog_kills"`
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	n := s.lru.Len()
	p := len(s.poisoned)
	s.mu.Unlock()
	return StoreStats{
		Hits:          s.hits.Load(),
		DiskHits:      s.diskHits.Load(),
		Misses:        s.misses.Load(),
		Dedups:        s.dedups.Load(),
		DiskErrs:      s.diskErrs.Load(),
		Entries:       n,
		Poisoned:      p,
		PoisonHits:    s.poisonHits.Load(),
		Panics:        s.panics.Load(),
		WatchdogKills: s.watchdogKills.Load(),
	}
}

func (s *Store) memGetLocked(key string) (*entry, bool) {
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry), true
}

func (s *Store) memPutLocked(e *entry) {
	if el, ok := s.entries[e.key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	s.entries[e.key] = s.lru.PushFront(e)
	for s.lru.Len() > s.maxEntries {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*entry).key)
	}
}

// resultVersion tags the result file's envelope layout. A file of another
// version is a plain miss, not a disk error: it is recomputed and
// rewritten.
const resultVersion = 2

// poisonVersion tags the quarantine envelope. It moves independently of
// resultVersion, so quarantines survive a result-format change.
const poisonVersion = 1

// A result file (<key>.json) is one JSON object whose every byte a hit
// checks, in this exact order and spelling:
//
//	{"v":2,"key":"<key>","crc32c":<n>,"results":<bytes>}
//
// <bytes> is the entry's encoded Results and <n> their CRC-32C
// (Castagnoli) in canonical decimal. Carrying the key inside the file
// binds it to the key being looked up, and the checksum covers what a hit
// serves, so a truncated, overwritten, mis-renamed or bit-flipped file
// degrades to a cache miss without decoding anything.
var (
	resultHead = []byte(`{"v":` + strconv.Itoa(resultVersion) + `,"key":"`)
	crcTag     = []byte(`","crc32c":`)
	resultsTag = []byte(`,"results":`)
	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	errOtherVersion = errors.New("serve: result file has another envelope version")
	errBadEntry     = errors.New("serve: result file is not an entry for its key")
)

// envelope builds key's result file around the encoded Results enc, in
// one allocation, and returns it with its results part.
func envelope(key string, enc []byte) (file, results []byte) {
	file = make([]byte, 0, len(resultHead)+len(key)+len(crcTag)+10+len(resultsTag)+len(enc)+1)
	file = append(file, resultHead...)
	file = append(file, key...)
	file = append(file, crcTag...)
	file = strconv.AppendUint(file, uint64(crc32.Checksum(enc, castagnoli)), 10)
	file = append(file, resultsTag...)
	file = append(file, enc...)
	results = file[len(file)-len(enc):]
	return append(file, '}'), results
}

// envelopeResults returns the results part of a result file for key, after
// checking the head, the key, the checksum and the closing brace. It
// decodes nothing. A file that starts like another version's envelope is
// errOtherVersion; anything else that is not exactly key's envelope is
// errBadEntry.
func envelopeResults(key string, data []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(data, resultHead)
	if !ok {
		if otherVersion(data) {
			return nil, errOtherVersion
		}
		return nil, errBadEntry
	}
	if len(rest) < len(key) || string(rest[:len(key)]) != key {
		return nil, errBadEntry
	}
	if rest, ok = bytes.CutPrefix(rest[len(key):], crcTag); !ok {
		return nil, errBadEntry
	}
	n := digits(rest)
	if n == 0 || n > 10 || (n > 1 && rest[0] == '0') {
		return nil, errBadEntry
	}
	var sum uint64
	for _, c := range rest[:n] {
		sum = sum*10 + uint64(c-'0')
	}
	if rest, ok = bytes.CutPrefix(rest[n:], resultsTag); !ok || len(rest) < 2 || rest[len(rest)-1] != '}' {
		return nil, errBadEntry
	}
	enc := rest[:len(rest)-1]
	if sum > 0xffffffff || crc32.Checksum(enc, castagnoli) != uint32(sum) {
		return nil, errBadEntry
	}
	return enc, nil
}

// otherVersion reports whether data starts like a result envelope of a
// version other than resultVersion: {"v":<digits>, with other digits.
func otherVersion(data []byte) bool {
	rest, ok := bytes.CutPrefix(data, []byte(`{"v":`))
	n := digits(rest)
	return ok && n > 0 && n < len(rest) && rest[n] == ',' &&
		string(rest[:n]) != strconv.Itoa(resultVersion)
}

// digits counts the leading ASCII digits of b.
func digits(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}

// safeKey reports whether a key may be used as a cache file name. Real keys
// are system.CacheKey hex digests; the Store API accepts arbitrary strings,
// and anything that could navigate the filesystem (path separators, "..",
// drive letters) must never reach filepath.Join — an unsafe key simply
// bypasses the disk layer and lives in memory only. The safe alphabet also
// needs no escaping inside the envelope's JSON string.
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

// diskGet loads an entry from the on-disk layer. Unreadable, corrupt, or
// wrong-key files count as misses and bump the disk-error counter; a file
// of another envelope version is a plain miss. Either way the entry is
// recomputed and rewritten.
func (s *Store) diskGet(key string) (*entry, bool) {
	if s.dir == "" {
		return nil, false
	}
	path := s.diskPath(key)
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
	enc, err := envelopeResults(key, data)
	if err != nil {
		if !errors.Is(err, errOtherVersion) {
			s.diskErrs.Add(1)
		}
		return nil, false
	}
	return &entry{key: key, file: data, enc: enc}, true
}

// diskPut persists an entry, best-effort: a full disk or unwritable
// directory degrades the store to memory-only for that entry rather than
// failing the simulation that produced it.
func (s *Store) diskPut(e *entry) {
	if s.dir == "" {
		return
	}
	path := s.diskPath(e.key)
	if path == "" {
		return
	}
	if e.file == nil {
		s.diskErrs.Add(1)
		return
	}
	s.writeFile(path, e.key+".tmp*", e.file)
}

// poisonEntry is the on-disk quarantine envelope (<key>.poison.json), with
// the same key-echo corruption defense as the result envelope.
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
		ent.V != poisonVersion || ent.Key != key ||
		ent.Fault == nil || !ent.Fault.Kind.Deterministic() {
		s.diskErrs.Add(1)
		return nil, false
	}
	return ent.Fault, true
}

// diskPoisonPut persists a quarantine entry, best-effort.
func (s *Store) diskPoisonPut(key string, pe *fault.PointError) {
	path := s.poisonPath(key)
	if path == "" {
		return
	}
	data, err := json.Marshal(poisonEntry{V: poisonVersion, Key: key, Fault: pe})
	if err != nil {
		s.diskErrs.Add(1)
		return
	}
	s.writeFile(path, key+".poison.tmp*", data)
}

// writeFile writes data to path through a temp file (named by pattern) and
// a rename, so concurrent processes never observe a partial file. Failures
// are counted, not returned.
func (s *Store) writeFile(path, pattern string, data []byte) {
	tmp, err := os.CreateTemp(s.dir, pattern)
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
