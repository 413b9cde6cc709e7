package experiments

import (
	"sync"
	"time"
)

// ProgressFunc receives sweep progress snapshots from a figure's sweep. It is called
// once when a point starts and once when it finishes, from the sweep's
// worker goroutines; implementations must be safe for concurrent use and
// should return quickly (a slow sink stalls the sweep).
type ProgressFunc func(ProgressEvent)

// ProgressEvent is one sweep progress snapshot. Counts are cumulative over
// the sweep; Key/Done/PointWall describe the point that triggered the event.
type ProgressEvent struct {
	// Total is the number of points in the sweep.
	Total int
	// Started counts points whose simulation (or cache lookup) has begun.
	Started int
	// Completed counts points that finished successfully.
	Completed int
	// Cached counts completed points served from the result cache without
	// running a simulation.
	Cached int
	// Failed counts points that finished with an error (including points
	// cancelled because another point failed first).
	Failed int

	// Key is the canonical cache key (system.CacheKey) of the point that
	// triggered this event.
	Key string
	// Done is true for completion events, false for start events.
	Done bool
	// Err is the point's failure, nil on success (completion events only).
	Err error
	// PointWall is the observed wall-clock time of the finished point
	// (completion events only).
	PointWall time.Duration

	// EstRemaining estimates the wall-clock time left in the sweep: the mean
	// wall time of computed (non-cached) points, scaled by the points still
	// outstanding and divided by the sweep parallelism. Zero until the first
	// computed point finishes.
	EstRemaining time.Duration
}

// progressTracker aggregates per-point notifications into monotonic sweep
// counts and wall-time estimates. A nil tracker discards events, so a sweep
// never branches on whether a sink is configured.
type progressTracker struct {
	fn  ProgressFunc
	par int

	mu        sync.Mutex
	total     int
	started   int
	completed int
	cached    int
	failed    int
	wallSum   time.Duration // computed (non-cached) points only
	wallN     int
}

func newProgressTracker(fn ProgressFunc, total, par int) *progressTracker {
	if fn == nil {
		return nil
	}
	if par < 1 {
		par = 1
	}
	return &progressTracker{fn: fn, par: par, total: total}
}

// start records (and reports) one point beginning.
func (p *progressTracker) start(key string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.started++
	ev := p.snapshotLocked()
	p.mu.Unlock()
	ev.Key = key
	p.fn(ev)
}

// finish records (and reports) one point ending. cached marks a successful
// point served from the result cache; wall is its observed wall-clock time.
func (p *progressTracker) finish(key string, err error, cached bool, wall time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if err != nil {
		p.failed++
	} else {
		p.completed++
		if cached {
			p.cached++
		} else {
			p.wallSum += wall
			p.wallN++
		}
	}
	ev := p.snapshotLocked()
	p.mu.Unlock()
	ev.Key = key
	ev.Done = true
	ev.Err = err
	ev.PointWall = wall
	p.fn(ev)
}

// snapshotLocked builds the cumulative event under p.mu.
func (p *progressTracker) snapshotLocked() ProgressEvent {
	ev := ProgressEvent{
		Total:     p.total,
		Started:   p.started,
		Completed: p.completed,
		Cached:    p.cached,
		Failed:    p.failed,
	}
	if p.wallN > 0 {
		remaining := p.total - p.completed - p.failed
		if remaining > 0 {
			mean := p.wallSum / time.Duration(p.wallN)
			ev.EstRemaining = mean * time.Duration(remaining) / time.Duration(p.par)
		}
	}
	return ev
}
