package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfloat/internal/cluster/chaos"
	"streamfloat/internal/config"
	"streamfloat/internal/experiments"
	"streamfloat/internal/fault"
	"streamfloat/internal/serve"
	"streamfloat/internal/system"
)

// TestClusterPoisonedPointKeepGoing is the acceptance test from the issue: a
// deliberately-panicking point in a 3-backend cluster sweep keeps its backend
// serving (panic contained to a typed 422, sfserve_panics_total incremented),
// the client neither fails over nor recomputes the poisoned point, the sweep
// completes under keep-going with that point marked failed and every other
// row bit-identical to a clean local run — and a re-run replays the
// quarantine instead of re-simulating.
func TestClusterPoisonedPointKeepGoing(t *testing.T) {
	if testing.Short() {
		t.Skip("3-backend keep-going sweep runs 14 real simulations plus the local reference")
	}
	ssCfg, err := config.ForSystem("SS", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	poisonKey := system.CacheKey(ssCfg, "nn", 0.05)
	var panics atomic.Int64
	runner := func(ctx context.Context, cfg config.Config, bench string, scale float64) (system.Results, error) {
		if system.CacheKey(cfg, bench, scale) == poisonKey {
			panics.Add(1)
			panic("injected simulator fault")
		}
		return system.RunBenchmark(ctx, cfg, bench, scale)
	}
	b0, b1, b2 := newBackend(t, runner), newBackend(t, runner), newBackend(t, runner)
	c := sweepClient(t, b0.URL, b1.URL, b2.URL)

	opts := fig13Opts()
	opts.Cache = c
	opts.KeepGoing = true
	opts.Failures = &experiments.FailureLog{}
	got, err := experiments.Fig13(opts)
	if err != nil {
		t.Fatalf("keep-going cluster sweep must complete: %v", err)
	}

	pts := opts.Failures.Points()
	if len(pts) != 1 {
		t.Fatalf("failures = %+v, want exactly the poisoned point", pts)
	}
	f := pts[0]
	if f.System != "SS" || f.Core != "OOO8" || f.Kind != fault.KindPanic || !f.Quarantined {
		t.Errorf("failure = %+v, want quarantined SS/OOO8 panic", f)
	}

	// The panic ran exactly once: no failover retry, no hedge copy, no local
	// recompute ever re-executed the poisoned simulation.
	if n := panics.Load(); n != 1 {
		t.Errorf("poisoned simulation ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Poisoned != 1 || st.Retries != 0 || st.Fallbacks != 0 || st.Remote != 14 {
		t.Errorf("stats %+v, want 14 remote points, 1 poisoned, no retries/fallbacks", st)
	}

	// The backend that contained the panic is still serving — degraded, with
	// the containment visible in its health payload and metrics.
	owner := []*httptest.Server{b0, b1, b2}[c.ring.successors(poisonKey)[0]]
	resp, err := http.Get(owner.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" || health.Panics != 1 {
		t.Errorf("poisoned backend healthz = %d %+v, want 200 degraded with 1 panic", resp.StatusCode, health)
	}

	// Every row not derived from the poisoned point matches the clean local
	// reference bit for bit.
	want := localFig13(t)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		if row[0] == "OOO8" && row[1] == "SS" {
			continue // the poisoned point's row
		}
		if !reflect.DeepEqual(row, want.Rows[i]) {
			t.Errorf("row %d diverged from the clean local run:\ngot  %v\nwant %v", i, row, want.Rows[i])
		}
	}

	// Re-running the sweep replays the quarantine: still one failure, still
	// exactly one panic ever — the 422 comes from the store's negative entry.
	opts.Failures = &experiments.FailureLog{}
	if _, err := experiments.Fig13(opts); err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if pts := opts.Failures.Points(); len(pts) != 1 || !pts[0].Quarantined {
		t.Errorf("re-run failures = %+v, want the quarantined point again", pts)
	}
	if n := panics.Load(); n != 1 {
		t.Errorf("re-run re-simulated the poisoned point (%d panics)", n)
	}

	// For a fresh client the 422 is just as authoritative: the point ends
	// on the first answer, and the local compute path never runs for it.
	fresh := sweepClient(t, b0.URL, b1.URL, b2.URL)
	_, err = fresh.DoPoint(context.Background(), poisonKey, ssCfg, "nn", 0.05, func() (system.Results, error) {
		t.Error("local fallback ran for a poisoned point")
		return system.Results{}, nil
	})
	if !fault.IsPoisoned(err) {
		t.Fatalf("DoPoint err = %v, want a poisoned-point error", err)
	}
	if s := fresh.Stats(); s != (Stats{Poisoned: 1}) {
		t.Errorf("fresh client stats %+v, want the poisoned point to end the attempt outright", s)
	}
}

// TestClusterHangTimesOutAndRetries: a backend that accepts the request and
// never responds (chaos hang) is only caught by the client's request
// timeout; the retry then succeeds on the same backend.
func TestClusterHangTimesOutAndRetries(t *testing.T) {
	b := newBackend(t, stubRunner("ok", 0))
	proxy := chaos.New(b.URL, func(n int, _ *http.Request) chaos.Decision {
		if n == 0 {
			return chaos.Decision{Fault: chaos.FaultHang}
		}
		return chaos.Decision{}
	})
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)
	c, err := New(Config{
		Backends:       []string{pts.URL},
		RequestTimeout: 100 * time.Millisecond,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	key := system.CacheKey(cfg, "nn", 0.05)
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", 0.05, nil)
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if res.Benchmark != "ok" {
		t.Errorf("result %q, want %q", res.Benchmark, "ok")
	}
	st := c.Stats()
	if st.Remote != 1 || st.Retries != 1 {
		t.Errorf("stats %+v, want one timed-out attempt then a retried success", st)
	}
	if proxy.Injected(chaos.FaultHang) != 1 {
		t.Error("the chaos proxy never hung a request; the test exercised nothing")
	}
}

// TestClusterMidBodyPanicFailsOver: a backend connection severed mid-body
// after promising a longer response (chaos panic — what a crashed handler
// looks like on the wire) is a failed attempt that fails over cleanly.
func TestClusterMidBodyPanicFailsOver(t *testing.T) {
	bad := newBackend(t, stubRunner("bad", 0))
	proxy := chaos.New(bad.URL, func(int, *http.Request) chaos.Decision {
		return chaos.Decision{Fault: chaos.FaultPanic}
	})
	pts := httptest.NewServer(proxy)
	t.Cleanup(pts.Close)
	good := newBackend(t, stubRunner("good", 0))
	c, err := New(Config{
		Backends:    []string{pts.URL, good.URL},
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cfg := config.Default()
	scale := shardScales(t, c, cfg, "nn", 0, 1)[0] // primary = panicking backend
	key := system.CacheKey(cfg, "nn", scale)
	res, err := c.DoPoint(context.Background(), key, cfg, "nn", scale, nil)
	if err != nil {
		t.Fatalf("DoPoint: %v", err)
	}
	if res.Benchmark != "good" {
		t.Errorf("result %q, want failover to %q", res.Benchmark, "good")
	}
	if proxy.Injected(chaos.FaultPanic) == 0 {
		t.Error("the chaos proxy never injected a mid-body panic")
	}
}

// TestChaosFaultStrings pins the debug names of the fault modes.
func TestChaosFaultStrings(t *testing.T) {
	want := map[chaos.Fault]string{
		chaos.FaultNone:     "none",
		chaos.FaultDrop:     "drop",
		chaos.FaultDelay:    "delay",
		chaos.Fault5xx:      "5xx",
		chaos.FaultTruncate: "truncate",
		chaos.FaultHang:     "hang",
		chaos.FaultPanic:    "panic",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("Fault(%d).String() = %q, want %q", f, f.String(), s)
		}
	}
	if got := chaos.Fault(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown fault stringer = %q", got)
	}
}
