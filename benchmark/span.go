package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span names, one per layer boundary the harness can see from outside.
const (
	spanSweep   = "sweep"        // one pass: a sweep, a simulation, a job or a request batch
	spanPoint   = "point"        // one sweep point, from experiments' progress events
	spanCacheDo = "cache.do"     // the ResultCache call of one point
	spanCompute = "compute"      // the guarded simulation of one point, on whichever side ran it
	spanHTTP    = "http.request" // client side: request written until response headers read
	spanDecode  = "decode"       // client side: response body read and decoded
	spanHandle  = "serve.handle" // in-process backend: the whole handler
	spanBuild   = "system.build" // harness-driven system.Build
	spanRun     = "system.run"   // harness-driven Machine.RunContext
)

// spanHeader carries the parent span id from the harness's client transport
// to the in-process backend's handler wrapper.
const spanHeader = "X-Bench-Span"

// span is one recorded interval. Spans of one pass share Trace.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Trace  string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced passes run the same code with tracing off.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	trace string // stamped on every span opened from now on
	spans []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now()}
}

// setTrace names the pass the following spans belong to.
func (r *recorder) setTrace(trace string) {
	r.mu.Lock()
	r.trace = trace
	r.mu.Unlock()
}

// spanRef is an open span. A nil ref is valid and inert.
type spanRef struct {
	rec *recorder
	id  int // index into rec.spans, plus one
}

// start opens a span under parent (nil = root).
func (r *recorder) start(parent *spanRef, name string) *spanRef {
	if r == nil {
		return nil
	}
	return r.startID(parent.spanID(), name)
}

// startID opens a span under the span with the given id (0 = root).
func (r *recorder) startID(parent int, name string) *spanRef {
	if r == nil {
		return nil
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Trace: r.trace, Start: now, End: -1})
	r.mu.Unlock()
	return &spanRef{rec: r, id: id}
}

func (s *spanRef) spanID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// end closes the span.
func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Since(s.rec.origin)
	s.rec.mu.Lock()
	s.rec.spans[s.id-1].End = now
	s.rec.mu.Unlock()
}

// pass returns the closed spans of one pass.
func (r *recorder) pass(trace string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Trace == trace && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

type spanCtxKey struct{}

// withSpan returns ctx carrying s as the parent for spans opened downstream.
func withSpan(ctx context.Context, s *spanRef) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

func spanFrom(ctx context.Context) *spanRef {
	s, _ := ctx.Value(spanCtxKey{}).(*spanRef)
	return s
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover. Children
// running side by side are covered once, so on a tree without overlapping
// siblings the self times sum to the root span's duration.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	hi := s.Start
	for _, k := range kids {
		lo, end := k.Start, k.End
		if lo < hi {
			lo = hi
		}
		if end > s.End {
			end = s.End
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome-trace JSON (load it in
// chrome://tracing or ui.perfetto.dev). Complete events on one thread id must
// nest, so each span takes its parent's lane while the parent is the
// innermost open span there, and otherwise the first idle lane: concurrent
// points land on separate lanes with their children stacked beneath them.
func writeChromeTrace(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var lanes [][]span // per lane: stack of open spans
	laneOf := map[int]int{}
	events := make([]chromeEvent, 0, len(sorted))
	for _, s := range sorted {
		for i := range lanes {
			for n := len(lanes[i]); n > 0 && lanes[i][n-1].End <= s.Start; n = len(lanes[i]) {
				lanes[i] = lanes[i][:n-1]
			}
		}
		lane := -1
		if pl, ok := laneOf[s.Parent]; ok {
			if st := lanes[pl]; len(st) > 0 && st[len(st)-1].ID == s.Parent {
				lane = pl
			}
		}
		for i := 0; lane < 0 && i < len(lanes); i++ {
			if len(lanes[i]) == 0 {
				lane = i
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s)
		laneOf[s.ID] = lane
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: lane + 1,
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]string{
				"id": strconv.Itoa(s.ID), "parent": strconv.Itoa(s.Parent), "trace": s.Trace,
			},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
