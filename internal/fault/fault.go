// Package fault is the fault-isolation layer of the simulation stack: a
// structured error taxonomy for failed sweep points, panic containment at
// goroutine boundaries, and a per-point watchdog that detects stuck or
// livelocked simulations an event-loop cancellation poll can never catch.
//
// # Taxonomy
//
// Every point failure is classified into a Kind. Two kinds — KindPanic and
// KindViolation — are deterministic: the simulation is a pure function of
// (config, benchmark, scale), so a panic or sanitizer violation will recur
// on every re-run of the same canonical key. Deterministic failures are
// quarantine-worthy (serve.Store records them as negative cache entries)
// and non-retryable (cluster.Client must not fail them over to another
// backend, which would just crash the same way). Everything else —
// timeouts, cancellations, transport blips, harness bugs — is a property of
// this execution, not of the point, and stays retryable.
//
// # Watchdog
//
// The event loop polls for cancellation once per quantum, so a point that
// hangs (fires no events) or livelocks (fires events without advancing
// simulated time past maxCycles) never reaches the poll, or reaches it
// forever. Guard runs the simulation on a child goroutine with a Heartbeat
// threaded through the context; the simulation's event loop publishes its
// (events, cycle) counters into it, and a monitor goroutine samples them on
// a wall-clock ticker. No cycle progress across the stall window means the
// point is stuck: the monitor cancels just that point, and — if the
// simulation is hung somewhere cancellation cannot reach — abandons its
// goroutine after a grace period rather than hanging the whole sweep.
package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"streamfloat/internal/sanitize"
)

// Kind classifies one point failure.
type Kind string

const (
	// KindPanic is a recovered panic from the simulator or harness: a bug,
	// deterministic for the point's canonical key.
	KindPanic Kind = "panic"
	// KindViolation is a recovered sanitize.Violation: a machine-checked
	// protocol invariant broke, deterministically for this point.
	KindViolation Kind = "violation"
	// KindTimeout is a point killed by a deadline or the stall watchdog.
	KindTimeout Kind = "timeout"
	// KindCancelled is a point killed by its caller's context.
	KindCancelled Kind = "cancelled"
	// KindInternal is any other failure: harness errors, bad configs,
	// unclassifiable wrapped errors.
	KindInternal Kind = "internal"
)

// Deterministic reports whether a failure of this kind is a property of the
// point itself — guaranteed to recur on any re-execution of the same
// canonical key — rather than of one execution. Deterministic failures are
// quarantined and never retried or failed over.
func (k Kind) Deterministic() bool { return k == KindPanic || k == KindViolation }

// PointError is the structured failure of one sweep point. It is the
// taxonomy's carrier through sweepError, the serve Store's negative cache
// entries, sfserve's 422 response body, and the cluster client's
// non-retryable error path.
type PointError struct {
	// Key is the point's canonical cache key (system.CacheKey), when known.
	Key string `json:"key,omitempty"`
	// Kind classifies the failure.
	Kind Kind `json:"kind"`
	// Msg is the human-readable failure (panic value, violation text, ...).
	Msg string `json:"msg"`
	// Stack is the goroutine stack at recovery time, for panics/violations.
	Stack string `json:"stack,omitempty"`
	// Stuck marks a timeout raised by the stall watchdog (no event-loop
	// progress) rather than an ordinary deadline.
	Stuck bool `json:"stuck,omitempty"`
	// Quarantined marks an error served from a quarantine negative entry:
	// the point was NOT re-executed, its original deterministic failure was
	// replayed from the store.
	Quarantined bool `json:"quarantined,omitempty"`

	cause error
}

func (e *PointError) Error() string {
	suffix := ""
	if e.Quarantined {
		suffix = " [quarantined]"
	}
	if e.Stuck {
		suffix += " [stuck]"
	}
	return fmt.Sprintf("point %s%s: %s", e.Kind, suffix, e.Msg)
}

// Unwrap exposes the original error (panic value implementing error,
// wrapped classification source) to errors.Is/As.
func (e *PointError) Unwrap() error { return e.cause }

// Deterministic reports whether this failure will recur on re-execution.
func (e *PointError) Deterministic() bool { return e.Kind.Deterministic() }

// Served returns a copy marked as replayed from a quarantine entry, with
// the stack dropped (the stack of the original process is noise to
// a client; the kind, key, and message carry the diagnosis).
func (e *PointError) Served() *PointError {
	cp := *e
	cp.Quarantined = true
	cp.Stack = ""
	cp.cause = nil
	return &cp
}

// FromPanic converts a recovered panic value into a *PointError,
// distinguishing sanitizer violations from generic panics and capturing the
// stack. An already-structured *PointError passes through (gaining the key
// if it had none).
func FromPanic(key string, v any) *PointError {
	if pe, ok := v.(*PointError); ok {
		if pe.Key == "" {
			pe.Key = key
		}
		return pe
	}
	pe := &PointError{Key: key, Stack: string(debug.Stack())}
	switch x := v.(type) {
	case *sanitize.Violation:
		pe.Kind = KindViolation
		pe.Msg = x.Error()
		pe.cause = x
	case error:
		pe.Kind = KindPanic
		pe.Msg = x.Error()
		pe.cause = x
	default:
		pe.Kind = KindPanic
		pe.Msg = fmt.Sprint(x)
	}
	return pe
}

// Classify wraps an ordinary error as a *PointError: context errors map to
// timeout/cancelled, everything else to internal. A *PointError anywhere in
// err's chain passes through unchanged.
func Classify(key string, err error) *PointError {
	if err == nil {
		return nil
	}
	if pe, ok := As(err); ok {
		return pe
	}
	kind := KindInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		kind = KindTimeout
	case errors.Is(err, context.Canceled):
		kind = KindCancelled
	}
	return &PointError{Key: key, Kind: kind, Msg: err.Error(), cause: err}
}

// As extracts a *PointError from anywhere in err's chain.
func As(err error) (*PointError, bool) {
	var pe *PointError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// IsPoisoned reports whether err carries a deterministic point failure —
// the class that is quarantined and must never be retried or failed over.
func IsPoisoned(err error) bool {
	pe, ok := As(err)
	return ok && pe.Deterministic()
}

// Capture runs fn with panic containment: a panic (including a
// sanitize.Violation) is recovered and returned as a *PointError instead of
// unwinding the goroutine.
func Capture(key string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = FromPanic(key, v)
		}
	}()
	return fn()
}

// Heartbeat is a progress beacon published by a simulation's event loop and
// sampled by a watchdog monitor. The event loop stores its cumulative fired-
// event count and current cycle at every cancellation poll; the monitor
// reads them on a wall-clock ticker and treats a frozen cycle counter as a
// stuck point. All methods are nil-safe so plumbing stays unconditional.
type Heartbeat struct {
	beats  atomic.Uint64 // publishes observed (0 = loop not reached yet)
	events atomic.Uint64
	cycle  atomic.Uint64
}

// Publish records the loop's current progress counters.
func (h *Heartbeat) Publish(events, cycle uint64) {
	if h == nil {
		return
	}
	h.events.Store(events)
	h.cycle.Store(cycle)
	h.beats.Add(1)
}

// Load snapshots the beacon: how many publishes have happened, and the last
// published (events, cycle) pair.
func (h *Heartbeat) Load() (beats, events, cycle uint64) {
	if h == nil {
		return 0, 0, 0
	}
	// beats is read last so a torn read can only under-report progress —
	// the monitor then just waits one more tick.
	events = h.events.Load()
	cycle = h.cycle.Load()
	beats = h.beats.Load()
	return beats, events, cycle
}

// hbKey carries a *Heartbeat through a context. Plumbing via context keeps
// the sample/system call signatures unchanged: the watchdog installs the
// beacon, RunContext discovers it.
type hbKey struct{}

// WithHeartbeat attaches a heartbeat to ctx for the simulation beneath.
func WithHeartbeat(ctx context.Context, hb *Heartbeat) context.Context {
	return context.WithValue(ctx, hbKey{}, hb)
}

// HeartbeatFrom extracts the heartbeat installed by WithHeartbeat, or nil.
func HeartbeatFrom(ctx context.Context) *Heartbeat {
	hb, _ := ctx.Value(hbKey{}).(*Heartbeat)
	return hb
}

// abandonGrace is how long Guard waits after cancelling a stuck point for
// the simulation to observe the cancellation before abandoning its
// goroutine.
const abandonGrace = 2 * time.Second

// Guard executes one point's simulation with full fault isolation: panic
// containment (always), and — when stall or deadline is positive — a
// watchdog that kills the point if its event loop stops making cycle
// progress for the stall window, or if it exceeds the wall-clock deadline.
//
// sim receives a context carrying the watchdog's Heartbeat; the simulation
// event loop publishes progress into it at every cancellation poll (see
// system.Machine.RunContext). Stall detection starts at the first beat: a
// point hung before reaching its event loop (e.g. in workload preparation)
// is only caught by the deadline.
//
// A killed point returns a *PointError of KindTimeout (Stuck=true for stall
// kills). If the simulation does not observe the cancellation within a
// grace period — a truly hung goroutine, blocked somewhere cancellation
// cannot reach — Guard returns anyway and the goroutine is abandoned: it
// leaks until process exit, which is the only safe option for code that
// cannot be preempted, and the kill counters make the leak observable.
func Guard(ctx context.Context, key string, stall, deadline time.Duration, sim func(ctx context.Context) error) error {
	if stall <= 0 && deadline <= 0 {
		return Capture(key, func() error { return sim(ctx) })
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hb := &Heartbeat{}
	simCtx := WithHeartbeat(ctx, hb)
	done := make(chan error, 1)
	go func() {
		done <- Capture(key, func() error { return sim(simCtx) })
	}()

	// Sample a few times per stall window so a kill lands within ~1.25x the
	// configured stall; pure-deadline guards need only a coarse tick.
	interval := stall / 4
	if stall <= 0 {
		interval = deadline / 8
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	start := time.Now()
	lastChange := start
	var lastBeats, lastCycle uint64
	var killed *PointError
	var abandonAt time.Time
	for {
		select {
		case err := <-done:
			if killed != nil {
				return killed
			}
			return err
		case now := <-ticker.C:
			if killed != nil {
				if now.After(abandonAt) {
					return killed // sim goroutine abandoned
				}
				continue
			}
			if deadline > 0 && now.Sub(start) >= deadline {
				killed = &PointError{
					Key: key, Kind: KindTimeout,
					Msg: fmt.Sprintf("point exceeded its %v deadline", deadline),
				}
			} else if stall > 0 {
				beats, _, cycle := hb.Load()
				switch {
				case beats == 0:
					// Event loop not reached yet: the deadline covers setup.
					lastChange = now
				case cycle != lastCycle || lastBeats == 0:
					// Progress means the simulated clock moved (or the loop
					// just produced its first beat). Beats alone are not
					// progress: a zero-delay livelock beats forever at one
					// frozen cycle.
					lastBeats, lastCycle = beats, cycle
					lastChange = now
				case now.Sub(lastChange) >= stall:
					// Cycle frozen across the whole window: either hung (no
					// beats either) or livelocked (beats without cycle
					// progress, e.g. zero-delay event churn below maxCycles).
					killed = &PointError{
						Key: key, Kind: KindTimeout, Stuck: true,
						Msg: fmt.Sprintf("no event-loop progress for %v (stuck at cycle %d after %d events)",
							stall, cycle, hbEvents(hb)),
					}
				}
			}
			if killed != nil {
				cancel()
				abandonAt = now.Add(abandonGrace)
			}
		}
	}
}

// hbEvents reads just the event counter for kill diagnostics.
func hbEvents(h *Heartbeat) uint64 {
	_, ev, _ := h.Load()
	return ev
}
