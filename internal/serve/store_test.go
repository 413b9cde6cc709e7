package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// spotConfig is the golden spot point used for real-simulation cache tests.
func spotConfig(t *testing.T) (config.Config, string, float64) {
	t.Helper()
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	return cfg, "nn", 0.05
}

// TestStoreCachedVsFresh: the second Do of the same key must skip the
// computation and return a Results deeply equal to the fresh one.
func TestStoreCachedVsFresh(t *testing.T) {
	cfg, bench, scale := spotConfig(t)
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	key := system.CacheKey(cfg, bench, scale)
	computes := 0
	run := func() (system.Results, error) {
		computes++
		return system.RunBenchmark(context.Background(), cfg, bench, scale)
	}
	fresh, err := st.Do(context.Background(), key, run)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := st.Do(context.Background(), key, run)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	if !reflect.DeepEqual(fresh, cached) {
		t.Error("cached Results differ from fresh")
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

// TestStoreDiskRoundTrip: a second Store over the same directory — a fresh
// process in real life — serves the result from disk, deeply equal to the
// original, without recomputing.
func TestStoreDiskRoundTrip(t *testing.T) {
	cfg, bench, scale := spotConfig(t)
	dir := t.TempDir()
	key := system.CacheKey(cfg, bench, scale)
	run := func() (system.Results, error) {
		return system.RunBenchmark(context.Background(), cfg, bench, scale)
	}

	st1, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := st1.Do(context.Background(), key, run)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := st2.Do(context.Background(), key, func() (system.Results, error) {
		t.Error("disk-backed Do recomputed")
		return system.Results{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, loaded) {
		t.Error("disk round-trip changed Results")
	}
	if s := st2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 disk hit / 0 misses", s)
	}
	// And it is now promoted to memory: a further Do is a memory hit.
	if _, err := st2.Do(context.Background(), key, run); err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 memory hit after promotion", s)
	}
}

// TestStoreSingleflight: N concurrent Dos of one key share a single
// computation. The leader blocks until every follower is provably waiting
// (dedups == N-1), so the dedup is exercised for real, not by luck.
func TestStoreSingleflight(t *testing.T) {
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	const followers = 7
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (system.Results, error) {
		computes.Add(1)
		<-release
		return system.Results{Benchmark: "shared"}, nil
	}

	var wg sync.WaitGroup
	results := make([]system.Results, followers+1)
	errs := make([]error, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = st.Do(context.Background(), "k", compute)
		}(i)
	}
	// Wait until all non-leaders are parked on the in-flight call.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Dedups < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers deduped", st.Stats().Dedups, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("%d computations for %d concurrent callers, want 1", n, followers+1)
	}
	for i := range results {
		if errs[i] != nil || results[i].Benchmark != "shared" {
			t.Errorf("caller %d: res=%+v err=%v", i, results[i], errs[i])
		}
	}
}

// TestStoreErrorNotCached: a failed computation must not poison the key.
func TestStoreErrorNotCached(t *testing.T) {
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := st.Do(context.Background(), "k", func() (system.Results, error) {
		return system.Results{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	res, err := st.Do(context.Background(), "k", func() (system.Results, error) {
		return system.Results{Benchmark: "ok"}, nil
	})
	if err != nil || res.Benchmark != "ok" {
		t.Errorf("retry after failure: res=%+v err=%v", res, err)
	}
}

// TestStoreFollowerTakesOverCancelledLeader: when the leader dies of its own
// cancellation, a follower with a live context retries instead of
// inheriting context.Canceled.
func TestStoreFollowerTakesOverCancelledLeader(t *testing.T) {
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := st.Do(leaderCtx, "k", func() (system.Results, error) {
			close(leaderIn)
			<-leaderCtx.Done() // a simulation aborting at its poll point
			return system.Results{}, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want Canceled", err)
		}
	}()
	<-leaderIn

	followerDone := make(chan struct{})
	var fres system.Results
	var ferr error
	go func() {
		defer close(followerDone)
		fres, ferr = st.Do(context.Background(), "k", func() (system.Results, error) {
			return system.Results{Benchmark: "takeover"}, nil
		})
	}()
	// Let the follower park on the leader's call, then kill the leader.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Dedups < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never deduped")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	wg.Wait()
	<-followerDone
	if ferr != nil || fres.Benchmark != "takeover" {
		t.Errorf("follower: res=%+v err=%v, want a successful takeover", fres, ferr)
	}
}

// TestStoreWaiterCancelled: a follower whose own context ends while waiting
// gets its context error immediately.
func TestStoreWaiterCancelled(t *testing.T) {
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	go st.Do(context.Background(), "k", func() (system.Results, error) {
		close(started)
		<-block
		return system.Results{}, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("waiting follower err = %v, want Canceled", err)
	}
}

// TestStoreLRUEviction: the in-memory layer holds at most maxEntries results,
// evicting least-recently-used first.
func TestStoreLRUEviction(t *testing.T) {
	st, err := NewStore(2, "")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) func() (system.Results, error) {
		return func() (system.Results, error) {
			return system.Results{Benchmark: fmt.Sprintf("b%d", i)}, nil
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Do(context.Background(), fmt.Sprintf("k%d", i), mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
	if _, ok := st.Get("k0"); ok {
		t.Error("k0 survived eviction in a 2-entry store")
	}
	if _, ok := st.Get("k2"); !ok {
		t.Error("k2 (most recent) was evicted")
	}
}

// TestStoreResumesSweep is the local resume path (sfexp -cache): a figure
// sweep over a disk Store is interrupted after two points complete, and
// re-running it over a fresh Store on the same directory replays what
// finished and renders a table byte-identical to an uninterrupted run.
func TestStoreResumesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~2x15 real simulations across an interruption")
	}
	fig, ok := experiments.ByName("13")
	if !ok {
		t.Fatal("figure 13 is not registered")
	}
	sweep := func(ctx context.Context, dir string, progress experiments.ProgressFunc) (*Store, []byte, error) {
		st, err := NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := fig(experiments.Options{
			Scale: 0.02, Benchmarks: []string{"nn"}, Cache: st,
			Sanitize: sanitize.ModeOff, Context: ctx, Progress: progress,
		})
		if err != nil {
			return st, nil, err
		}
		data, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return st, data, nil
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, _, err := sweep(ctx, dir, func(ev experiments.ProgressEvent) {
		if ev.Completed >= 2 {
			cancel()
		}
	}); err == nil {
		t.Fatal("the interrupted sweep finished; cannot exercise resume")
	}

	st, got, err := sweep(context.Background(), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Misses >= 15 || s.DiskHits < 1 {
		t.Errorf("resumed store stats %+v, want fewer than 15 recomputes and >= 1 disk hit", s)
	}
	_, want, err := sweep(context.Background(), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed table is not byte-identical to the uninterrupted run:\nresumed       %s\nuninterrupted %s", got, want)
	}
}

// countingCache counts the computes a ResultCache runs, per key.
type countingCache struct {
	st *Store
	mu sync.Mutex
	n  map[string]int
}

func (c *countingCache) Do(ctx context.Context, key string, compute func() (system.Results, error)) (system.Results, error) {
	return c.st.Do(ctx, key, func() (system.Results, error) {
		c.mu.Lock()
		c.n[key]++
		c.mu.Unlock()
		return compute()
	})
}

// TestStoreSharesPointsAcrossFigures: the whole evaluation over one
// memory-only Store (what sfexp runs without -cache) simulates each
// distinct point once, however many figures share it, and renders JSON
// byte-identical to the same evaluation without a cache.
func TestStoreSharesPointsAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation twice")
	}
	all := func(cache experiments.ResultCache) []byte {
		opts := experiments.Options{Scale: 0.03, Benchmarks: []string{"nn"}, Sanitize: sanitize.ModeOff, Cache: cache}
		var tables []experiments.NamedTable
		for _, name := range experiments.Names() {
			fn, _ := experiments.ByName(name)
			tb, err := fn(opts)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, experiments.NamedTable{Name: name, Table: tb})
		}
		var buf bytes.Buffer
		if err := experiments.WriteJSON(&buf, tables); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := all(nil)
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingCache{st: st, n: map[string]int{}}
	if got := all(cc); !bytes.Equal(got, want) {
		t.Errorf("evaluation over a Store differs from the uncached one:\nstore    %s\nuncached %s", got, want)
	}
	for key, n := range cc.n {
		if n != 1 {
			t.Errorf("point %.16s… computed %d times, want once", key, n)
		}
	}
	if s := st.Stats(); s.Misses != uint64(len(cc.n)) || s.Hits == 0 {
		t.Errorf("store stats %+v over %d distinct points: want one miss each and hits for the shared ones", s, len(cc.n))
	}
}

// TestStoreResumesSampledSweep: a sampled point's estimate is part of its
// stored Results, so a sampled figure re-run over a fresh Store on the same
// directory, every point a disk hit, renders a table byte-identical to the
// cold run, sampling summary and footnote included.
func TestStoreResumesSampledSweep(t *testing.T) {
	fig, ok := experiments.ByName("14")
	if !ok {
		t.Fatal("figure 14 is not registered")
	}
	dir := t.TempDir()
	sweep := func() (StoreStats, *experiments.Table, []byte) {
		st, err := NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := fig(experiments.Options{
			Scale: 0.03, Benchmarks: []string{"nn", "mv"}, Cache: st,
			Sanitize: sanitize.ModeOff, Sample: config.SampleParams{Intervals: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return st.Stats(), tbl, data
	}
	_, cold, want := sweep()
	if cold.Sampling == nil || len(cold.Sampling.Points) != 2 {
		t.Fatalf("cold sampled table carries sampling %+v, want two points", cold.Sampling)
	}
	s, _, got := sweep()
	if s.DiskHits != 2 || s.Misses != 0 {
		t.Errorf("warm store stats %+v, want two disk hits", s)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store-served sampled table is not byte-identical to the cold run:\nwarm %s\ncold %s", got, want)
	}
}

// TestStoreOtherVersionIsPlainMiss: a result file of another envelope
// version (a v1 file after the v2 upgrade) is recomputed and rewritten as
// v2 without counting a disk error, while a corrupt v2 file still counts.
func TestStoreOtherVersionIsPlainMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := system.Results{Benchmark: "nn"}
	v1, err := json.Marshal(struct {
		V       int            `json:"v"`
		Key     string         `json:"key"`
		Results system.Results `json:"results"`
	}{1, "k1", want})
	if err != nil {
		t.Fatal(err)
	}
	path := st.diskPath("k1")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	computes := 0
	res, err := st.Do(context.Background(), "k1", func() (system.Results, error) {
		computes++
		return want, nil
	})
	if err != nil || computes != 1 || !reflect.DeepEqual(res, want) {
		t.Fatalf("v1 file: res=%+v err=%v computes=%d, want one recompute", res, err, computes)
	}
	if s := st.Stats(); s.DiskErrs != 0 || s.DiskHits != 0 || s.Misses != 1 {
		t.Errorf("v1 file: stats %+v, want a plain miss with no disk errors", s)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"v":2,"key":"k1","crc32c":`)) {
		t.Errorf("v1 file was not rewritten as v2: %s", data)
	}
	st2, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := st2.Get("k1"); !ok || !reflect.DeepEqual(res, want) {
		t.Errorf("rewritten file: Get = %+v, %v; want a disk hit", res, ok)
	}

	// One flipped byte inside a v2 file's results fails the checksum.
	data[bytes.Index(data, []byte(`"nn"`))+1] = 'N'
	if err := os.WriteFile(st.diskPath("k2"), bytes.Replace(data, []byte(`"k1"`), []byte(`"k2"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get("k2"); ok {
		t.Error("corrupt v2 file served as a hit")
	}
	if s := st2.Stats(); s.DiskErrs != 1 {
		t.Errorf("corrupt v2 file: stats %+v, want 1 disk error", s)
	}
}

// TestStoreBytesHitZeroAlloc: a memory hit through the bytes accessor
// (lookup, whose entry /run splices) allocates nothing.
func TestStoreBytesHitZeroAlloc(t *testing.T) {
	st, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	compute := func() (system.Results, error) { return system.Results{Benchmark: "nn"}, nil }
	if _, err := st.lookup(ctx, "k", compute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if e, err := st.lookup(ctx, "k", compute); err != nil || len(e.enc) == 0 {
			t.Fatalf("memory hit: entry %v, err %v", e, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a memory hit allocates %v objects, want 0", allocs)
	}
	if s := st.Stats(); s.Hits < 1000 || s.Misses != 1 {
		t.Errorf("stats %+v, want every measured lookup a memory hit", s)
	}
}
