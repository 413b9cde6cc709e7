package cluster

import (
	"sync"
	"time"
)

// health tracks passive per-backend health: every real request reports its
// outcome, and a backend accumulating failThreshold consecutive failures is
// ejected (skipped by shard routing) for ejectFor. After the ejection window
// passes the backend is readmitted on probation — the next request routed to
// it is a live probe, and a single further failure re-ejects it immediately
// (the consecutive-failure count is still at the threshold), while a success
// clears it back to full health.
type health struct {
	mu     sync.Mutex
	states []backendState

	failThreshold int
	ejectFor      time.Duration
	now           func() time.Time // injectable clock for tests
}

type backendState struct {
	consecFails  int
	ejectedUntil time.Time
	ejections    uint64
}

func newHealth(n, failThreshold int, ejectFor time.Duration, now func() time.Time) *health {
	if now == nil {
		now = time.Now
	}
	return &health{
		states:        make([]backendState, n),
		failThreshold: failThreshold,
		ejectFor:      ejectFor,
		now:           now,
	}
}

// available reports whether a backend may receive requests: healthy, or past
// its ejection window (probation).
func (h *health) available(backend int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[backend].ejectedUntil.Before(h.now())
}

// success clears a backend back to full health.
func (h *health) success(backend int) {
	h.mu.Lock()
	s := &h.states[backend]
	s.consecFails = 0
	s.ejectedUntil = time.Time{}
	h.mu.Unlock()
}

// failure records one failed request; crossing the consecutive-failure
// threshold ejects the backend. Returns true when this failure ejected it.
func (h *health) failure(backend int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.states[backend]
	s.consecFails++
	if s.consecFails >= h.failThreshold {
		s.ejectedUntil = h.now().Add(h.ejectFor)
		s.ejections++
		return true
	}
	return false
}

// ejections totals the ejection events across all backends.
func (h *health) ejectionCount() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for i := range h.states {
		n += h.states[i].ejections
	}
	return n
}
