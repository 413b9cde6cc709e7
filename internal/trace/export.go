// Chrome trace_event export (Perfetto-loadable) plus the matching reader
// used by cmd/sftrace, and a human-readable stream-lifecycle timeline.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// chromeEvent is one record of the Chrome trace_event format. Ts/Dur are
// microseconds by convention; we write one simulated cycle per microsecond
// and set displayTimeUnit accordingly, so Perfetto's time axis reads as
// cycles.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Attribution as exported: named buckets and service levels so readers
// need no knowledge of the internal enum order.
type attributionJSON struct {
	Loads       uint64            `json:"loads"`
	TotalCycles uint64            `json:"totalCycles"`
	Buckets     map[string]uint64 `json:"buckets"`
	ByLevel     map[string]uint64 `json:"byLevel"`
}

func (a TileAttribution) toJSON() attributionJSON {
	out := attributionJSON{
		Loads:       a.Loads,
		TotalCycles: a.TotalCycles,
		Buckets:     make(map[string]uint64, NumBuckets),
		ByLevel:     make(map[string]uint64, NumLevels),
	}
	for b := Bucket(0); b < NumBuckets; b++ {
		out.Buckets[b.String()] = a.Cycles[b]
	}
	for lv := 0; lv < NumLevels; lv++ {
		out.ByLevel[LevelName(lv)] = a.ByLevel[lv]
	}
	return out
}

func (a attributionJSON) toAttribution() TileAttribution {
	out := TileAttribution{Loads: a.Loads, TotalCycles: a.TotalCycles}
	for b := Bucket(0); b < NumBuckets; b++ {
		out.Cycles[b] = a.Buckets[b.String()]
	}
	for lv := 0; lv < NumLevels; lv++ {
		out.ByLevel[lv] = a.ByLevel[LevelName(lv)]
	}
	return out
}

// otherData is the run-level payload carried in the trace file's otherData
// field; it makes the export self-contained for sftrace (no simulator state
// needed to summarize a file).
type otherData struct {
	Tool        string          `json:"tool"`
	Benchmark   string          `json:"benchmark"`
	Label       string          `json:"label,omitempty"`
	MeshW       int             `json:"meshWidth"`
	MeshH       int             `json:"meshHeight"`
	Cycles      uint64          `json:"cycles"`
	RingDepth   int             `json:"ringDepth"`
	Dropped     uint64          `json:"droppedEvents"`
	LinkFlits   []uint64        `json:"linkFlits"`
	Attribution attributionJSON `json:"attribution"`
	Spans       []StreamSpan    `json:"streamSpans"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       otherData     `json:"otherData"`
}

// WriteChrome writes the full trace in Chrome trace_event JSON. Load it at
// ui.perfetto.dev or chrome://tracing: components are processes, tiles are
// threads, stream lifecycles are duration slices, everything else instants.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+len(t.spans)+2*int(NumComps)*len(t.rings))

	// Metadata: name one process per component and one thread per tile.
	for c := Comp(0); c < NumComps; c++ {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: int(c),
			Args: map[string]any{"name": c.String()},
		})
		for tile := range t.rings {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: int(c), Tid: tile,
				Args: map[string]any{"name": fmt.Sprintf("tile%02d", tile)},
			})
		}
	}

	// Stream lifecycle spans as duration slices.
	for _, s := range t.spans {
		args := map[string]any{
			"tile": s.Tile, "sid": s.SID, "startElem": s.StartElem,
			"base": fmt.Sprintf("%#x", s.Base), "bank": s.Bank,
			"children": s.Children, "migrations": s.Migrations,
			"endKind": s.EndKind,
		}
		if s.CfgHex != "" {
			args["cfg"] = s.CfgHex
		}
		end := s.End
		if end < s.Start {
			end = s.Start
		}
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("stream t%d s%d", s.Tile, s.SID),
			Cat:  "stream", Ph: "X", Ts: s.Start, Dur: end - s.Start + 1,
			Pid: int(CompStream), Tid: s.Tile, Args: args,
		})
	}

	// Ring events as instants.
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Kind.String(), Cat: e.Comp().String(), Ph: "i", S: "t",
			Ts: e.Cycle, Pid: int(e.Comp()), Tid: int(e.Tile),
			Args: map[string]any{"key": fmt.Sprintf("%#x", e.Key), "a": e.A, "b": e.B},
		})
	}

	// Per-tile attribution as counter tracks (visible as stacked counters).
	for tile := range t.attr {
		a := &t.attr[tile]
		if a.Loads == 0 {
			continue
		}
		args := make(map[string]any, NumBuckets)
		for b := Bucket(0); b < NumBuckets; b++ {
			args[b.String()] = a.Cycles[b]
		}
		out = append(out, chromeEvent{
			Name: "load-latency-cycles", Ph: "C", Ts: t.cycles,
			Pid: int(CompCPU), Tid: tile, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData: otherData{
			Tool:        "sftrace",
			Benchmark:   t.cfg.Benchmark,
			Label:       t.cfg.Label,
			MeshW:       t.cfg.MeshW,
			MeshH:       t.cfg.MeshH,
			Cycles:      t.cycles,
			RingDepth:   t.cfg.RingDepth,
			Dropped:     t.Dropped(),
			LinkFlits:   t.linkFlits,
			Attribution: t.Attribution().toJSON(),
			Spans:       t.spans,
		},
	})
}

// WriteChromeFile writes the Chrome trace to a file.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// File is a parsed trace export, as read back by cmd/sftrace.
type File struct {
	Benchmark   string
	Label       string
	MeshW       int
	MeshH       int
	Cycles      uint64
	RingDepth   int
	Dropped     uint64
	LinkFlits   []uint64
	Attribution TileAttribution
	Spans       []StreamSpan

	// EventCounts counts instant events by name; TotalEvents sums them.
	EventCounts map[string]uint64
	TotalEvents int
}

// Read parses a Chrome trace written by WriteChrome.
func Read(r io.Reader) (*File, error) {
	var ct chromeTrace
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	if ct.OtherData.Tool != "sftrace" {
		return nil, fmt.Errorf("trace: not an sftrace export (otherData.tool=%q)", ct.OtherData.Tool)
	}
	f := &File{
		Benchmark:   ct.OtherData.Benchmark,
		Label:       ct.OtherData.Label,
		MeshW:       ct.OtherData.MeshW,
		MeshH:       ct.OtherData.MeshH,
		Cycles:      ct.OtherData.Cycles,
		RingDepth:   ct.OtherData.RingDepth,
		Dropped:     ct.OtherData.Dropped,
		LinkFlits:   ct.OtherData.LinkFlits,
		Attribution: ct.OtherData.Attribution.toAttribution(),
		Spans:       ct.OtherData.Spans,
		EventCounts: make(map[string]uint64),
	}
	for _, e := range ct.TraceEvents {
		if e.Ph == "i" {
			f.EventCounts[e.Name]++
			f.TotalEvents++
		}
	}
	return f, nil
}

// ReadFile parses a Chrome trace file written by WriteChromeFile.
func ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteTimeline renders the stream lifecycle spans as a human-readable
// timeline, longest-lived first.
func WriteTimeline(w io.Writer, cycles uint64, spans []StreamSpan) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "no stream lifecycle spans recorded")
		return
	}
	sorted := make([]StreamSpan, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		di, dj := sorted[i].End-sorted[i].Start, sorted[j].End-sorted[j].Start
		if di != dj {
			return di > dj
		}
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Tile < sorted[j].Tile
	})
	fmt.Fprintf(w, "stream lifecycles (%d spans, run %d cycles):\n", len(spans), cycles)
	const width = 40
	for _, s := range sorted {
		bar := spanBar(s, cycles, width)
		mig := ""
		if s.Migrations > 0 {
			mig = fmt.Sprintf(" mig=%d", s.Migrations)
		}
		fmt.Fprintf(w, "  t%02d s%-3d |%s| %8d..%-8d %-10s bank=%-2d elem=%d%s\n",
			s.Tile, s.SID, bar, s.Start, s.End, s.EndKind, s.Bank, s.StartElem, mig)
	}
}

// spanBar renders a span's position in the run as a fixed-width gauge.
func spanBar(s StreamSpan, cycles uint64, width int) []byte {
	bar := make([]byte, width)
	for i := range bar {
		bar[i] = ' '
	}
	if cycles == 0 {
		cycles = s.End + 1
	}
	lo := int(s.Start * uint64(width) / cycles)
	hi := int(s.End * uint64(width) / cycles)
	if lo >= width {
		lo = width - 1
	}
	if hi >= width {
		hi = width - 1
	}
	for i := lo; i <= hi; i++ {
		bar[i] = '='
	}
	return bar
}

// WriteAttribution renders a latency-attribution breakdown as text.
func WriteAttribution(w io.Writer, a TileAttribution) {
	if a.Loads == 0 {
		fmt.Fprintln(w, "no probed loads recorded")
		return
	}
	avg := float64(a.TotalCycles) / float64(a.Loads)
	fmt.Fprintf(w, "load latency attribution (%d loads, avg %.1f cycles):\n", a.Loads, avg)
	for b := Bucket(0); b < NumBuckets; b++ {
		cyc := a.Cycles[b]
		pct := 0.0
		if a.TotalCycles > 0 {
			pct = 100 * float64(cyc) / float64(a.TotalCycles)
		}
		fmt.Fprintf(w, "  %-9s %12d cycles  %5.1f%%  %s\n", b.String(), cyc, pct, gauge(pct, 30))
	}
	fmt.Fprintln(w, "served at:")
	for lv := 0; lv < NumLevels; lv++ {
		n := a.ByLevel[lv]
		pct := 100 * float64(n) / float64(a.Loads)
		fmt.Fprintf(w, "  %-9s %12d loads   %5.1f%%\n", LevelName(lv), n, pct)
	}
}

func gauge(pct float64, width int) string {
	n := int(pct / 100 * float64(width))
	if n > width {
		n = width
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
