package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"streamfloat/internal/sanitize"
)

func TestKindDeterministic(t *testing.T) {
	det := map[Kind]bool{
		KindPanic:     true,
		KindViolation: true,
		KindTimeout:   false,
		KindCancelled: false,
		KindInternal:  false,
	}
	for k, want := range det {
		if k.Deterministic() != want {
			t.Errorf("%s.Deterministic() = %v, want %v", k, !want, want)
		}
	}
}

func TestFromPanicViolation(t *testing.T) {
	v := &sanitize.Violation{Msg: "sharer bit set without directory entry"}
	pe := FromPanic("k1", v)
	if pe.Kind != KindViolation {
		t.Errorf("kind = %s, want violation", pe.Kind)
	}
	if pe.Key != "k1" {
		t.Errorf("key = %q", pe.Key)
	}
	if !strings.Contains(pe.Msg, "sharer bit") {
		t.Errorf("msg = %q", pe.Msg)
	}
	if pe.Stack == "" {
		t.Error("no stack captured")
	}
	// The violation stays reachable for errors.As through the chain.
	var got *sanitize.Violation
	if !errors.As(pe, &got) || got != v {
		t.Error("violation not reachable via errors.As")
	}
	if !pe.Deterministic() {
		t.Error("violation not deterministic")
	}
}

func TestFromPanicGeneric(t *testing.T) {
	pe := FromPanic("k2", "index out of range [4] with length 3")
	if pe.Kind != KindPanic {
		t.Errorf("kind = %s, want panic", pe.Kind)
	}
	if !strings.Contains(pe.Msg, "index out of range") {
		t.Errorf("msg = %q", pe.Msg)
	}

	base := errors.New("nil map write")
	pe = FromPanic("k3", base)
	if pe.Kind != KindPanic || !errors.Is(pe, base) {
		t.Error("error panic value not wrapped as cause")
	}
}

func TestFromPanicPassthrough(t *testing.T) {
	orig := &PointError{Kind: KindViolation, Msg: "original"}
	pe := FromPanic("added-key", orig)
	if pe != orig {
		t.Error("structured panic value did not pass through")
	}
	if pe.Key != "added-key" {
		t.Errorf("passthrough did not gain the key: %q", pe.Key)
	}
	pe2 := FromPanic("other", &PointError{Key: "kept", Kind: KindPanic, Msg: "m"})
	if pe2.Key != "kept" {
		t.Error("existing key overwritten")
	}
}

func TestClassify(t *testing.T) {
	if Classify("k", nil) != nil {
		t.Error("Classify(nil) != nil")
	}
	if pe := Classify("k", fmt.Errorf("wrap: %w", context.DeadlineExceeded)); pe.Kind != KindTimeout {
		t.Errorf("deadline classified as %s", pe.Kind)
	}
	if pe := Classify("k", context.Canceled); pe.Kind != KindCancelled {
		t.Errorf("cancel classified as %s", pe.Kind)
	}
	if pe := Classify("k", errors.New("bad config")); pe.Kind != KindInternal {
		t.Errorf("generic classified as %s", pe.Kind)
	}
	orig := &PointError{Key: "orig", Kind: KindPanic, Msg: "m"}
	if pe := Classify("k", fmt.Errorf("point a/b/c: %w", orig)); pe != orig {
		t.Error("wrapped PointError did not pass through Classify")
	}
}

func TestIsPoisoned(t *testing.T) {
	poisoned := fmt.Errorf("wrap: %w", &PointError{Kind: KindPanic, Msg: "m"})
	if !IsPoisoned(poisoned) {
		t.Error("panic PointError not poisoned")
	}
	if IsPoisoned(&PointError{Kind: KindTimeout, Msg: "m"}) {
		t.Error("timeout treated as poisoned")
	}
	if IsPoisoned(errors.New("plain")) {
		t.Error("plain error treated as poisoned")
	}
	if IsPoisoned(nil) {
		t.Error("nil treated as poisoned")
	}
}

func TestServed(t *testing.T) {
	cause := errors.New("cause")
	pe := &PointError{Key: "k", Kind: KindPanic, Msg: "m", Stack: "stack...", cause: cause}
	s := pe.Served()
	if !s.Quarantined || s.Stack != "" || s.cause != nil {
		t.Errorf("Served() = %+v", s)
	}
	if pe.Quarantined || pe.Stack == "" {
		t.Error("Served mutated the original")
	}
	if !strings.Contains(s.Error(), "[quarantined]") {
		t.Errorf("Error() = %q, want quarantined marker", s.Error())
	}
}

func TestCapture(t *testing.T) {
	if err := Capture("k", func() error { return nil }); err != nil {
		t.Errorf("clean fn returned %v", err)
	}
	sentinel := errors.New("plain failure")
	if err := Capture("k", func() error { return sentinel }); err != sentinel {
		t.Errorf("plain error not passed through: %v", err)
	}
	err := Capture("k", func() error { panic("boom") })
	pe, ok := As(err)
	if !ok || pe.Kind != KindPanic || pe.Key != "k" {
		t.Errorf("captured panic = %v", err)
	}
}

func TestGuardNoWatchdogContainsPanic(t *testing.T) {
	err := Guard(context.Background(), "k", 0, 0, func(context.Context) error {
		panic(&sanitize.Violation{Msg: "bad state"})
	})
	pe, ok := As(err)
	if !ok || pe.Kind != KindViolation {
		t.Fatalf("guard(0,0) panic = %v", err)
	}
}

func TestGuardCleanRun(t *testing.T) {
	ran := false
	err := Guard(context.Background(), "k", 50*time.Millisecond, time.Second, func(ctx context.Context) error {
		// A healthy sim publishes advancing cycles.
		hb := HeartbeatFrom(ctx)
		if hb == nil {
			t.Error("no heartbeat in sim context")
		}
		for i := uint64(1); i <= 20; i++ {
			hb.Publish(i*100, i*1000)
			time.Sleep(5 * time.Millisecond)
		}
		ran = true
		return nil
	})
	if err != nil {
		t.Fatalf("healthy sim killed: %v", err)
	}
	if !ran {
		t.Fatal("sim did not run")
	}
}

func TestGuardDeadlineKill(t *testing.T) {
	start := time.Now()
	err := Guard(context.Background(), "k", 0, 30*time.Millisecond, func(ctx context.Context) error {
		<-ctx.Done() // well-behaved sim: observes the kill
		return ctx.Err()
	})
	pe, ok := As(err)
	if !ok || pe.Kind != KindTimeout {
		t.Fatalf("deadline kill = %v", err)
	}
	if pe.Stuck {
		t.Error("deadline kill marked stuck")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("kill took %v", elapsed)
	}
}

func TestGuardStallKillLivelock(t *testing.T) {
	err := Guard(context.Background(), "k", 40*time.Millisecond, 0, func(ctx context.Context) error {
		// Livelock: beats keep coming but the simulated clock is frozen —
		// the failure mode a per-N-events cancellation poll cannot detect.
		hb := HeartbeatFrom(ctx)
		events := uint64(0)
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			events += 1024
			hb.Publish(events, 7777) // cycle never advances
			time.Sleep(time.Millisecond)
		}
	})
	pe, ok := As(err)
	if !ok || pe.Kind != KindTimeout || !pe.Stuck {
		t.Fatalf("livelock kill = %v", err)
	}
	if !strings.Contains(pe.Msg, "7777") {
		t.Errorf("kill msg lacks the frozen cycle: %q", pe.Msg)
	}
	if pe.Deterministic() {
		t.Error("watchdog kill must not be quarantine-worthy")
	}
}

func TestGuardAbandonsHungSim(t *testing.T) {
	if testing.Short() {
		t.Skip("abandon grace is seconds-scale")
	}
	block := make(chan struct{})
	defer close(block)
	start := time.Now()
	err := Guard(context.Background(), "k", 0, 20*time.Millisecond, func(context.Context) error {
		<-block // hung beyond cancellation's reach
		return nil
	})
	pe, ok := As(err)
	if !ok || pe.Kind != KindTimeout {
		t.Fatalf("hung sim = %v", err)
	}
	// Guard must return after deadline + grace, not hang on the sim.
	if elapsed := time.Since(start); elapsed > abandonGrace+2*time.Second {
		t.Errorf("abandon took %v", elapsed)
	}
}

func TestGuardCancelledCaller(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Guard(ctx, "k", time.Second, 0, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	// Caller cancellation is the sim's own (context) error, not a kill.
	if pe, ok := As(err); ok && pe.Kind == KindTimeout {
		t.Errorf("caller cancel reported as a kill: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestHeartbeatNilSafe(t *testing.T) {
	var hb *Heartbeat
	hb.Publish(1, 2) // must not panic
	if b, e, c := hb.Load(); b != 0 || e != 0 || c != 0 {
		t.Error("nil heartbeat loaded nonzero")
	}
	if HeartbeatFrom(context.Background()) != nil {
		t.Error("empty context produced a heartbeat")
	}
}
