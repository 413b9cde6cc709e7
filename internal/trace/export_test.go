package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// populated builds a tracer with one of everything worth exporting.
func populated() *Tracer {
	tr := newTestTracer()
	tr.Emit(1, 0, KindL1Miss, 0x40, 3, 0)
	tr.Emit(2, 1, KindNocHop, 5, 4, 6)
	tr.AddLinkFlits(2, 11)
	tr.Stream(KindStreamFloat, 10, 0, 1, 8, 0, 0x1000, nil)
	tr.Stream(KindStreamConfig, 11, 0, 1, 8, 0, 3, []byte{0x01, 0x02})
	p := tr.Probe()
	p.Issue, p.L1Done, p.Level = 0, 2, LevelL1
	tr.FinishLoad(0, p, 2)
	tr.FinishRun(100)
	return tr
}

func TestChromeRoundTrip(t *testing.T) {
	tr := populated()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	// The output must be valid JSON in trace_event "object format".
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if _, ok := raw["traceEvents"].([]any); !ok {
		t.Fatal("traceEvents missing")
	}

	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Benchmark != "bench" || f.Label != "SF/OOO8" || f.MeshW != 2 || f.MeshH != 1 {
		t.Errorf("run info = %+v", f)
	}
	if f.Cycles != 100 || f.RingDepth != 4 {
		t.Errorf("cycles/depth = %d/%d", f.Cycles, f.RingDepth)
	}
	if len(f.Spans) != 1 || f.Spans[0].EndKind != "run-end" || f.Spans[0].CfgHex != "0102" {
		t.Errorf("spans = %+v", f.Spans)
	}
	if f.LinkFlits[2] != 11 {
		t.Errorf("link flits = %v", f.LinkFlits)
	}
	a := f.Attribution
	if a.Loads != 1 || a.TotalCycles != 2 || a.Cycles[BucketL1] != 2 || a.ByLevel[LevelL1] != 1 {
		t.Errorf("attribution round trip = %+v", a)
	}
	// Instants: l1-miss, noc-hop, stream-float, stream-config, load-done.
	if f.TotalEvents != 5 || f.EventCounts["l1-miss"] != 1 || f.EventCounts["load-done"] != 1 {
		t.Errorf("event counts = %v (total %d)", f.EventCounts, f.TotalEvents)
	}
}

func TestReadRejectsForeignTrace(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"traceEvents":[],"otherData":{"tool":"other"}}`)); err == nil {
		t.Error("foreign trace accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	WriteTimeline(&buf, 100, []StreamSpan{
		{Tile: 0, SID: 1, Start: 10, End: 90, EndKind: "end", Bank: 2, StartElem: 8},
		{Tile: 1, SID: 2, Start: 0, End: 20, EndKind: "sink", Bank: 0, Migrations: 1},
	})
	out := buf.String()
	for _, want := range []string{"2 spans", "t00 s1", "end", "sink", "mig=1", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Longest span renders first.
	if strings.Index(out, "t00 s1") > strings.Index(out, "t01 s2") {
		t.Error("timeline not sorted longest-first")
	}
	buf.Reset()
	WriteTimeline(&buf, 0, nil)
	if !strings.Contains(buf.String(), "no stream lifecycle spans") {
		t.Error("empty timeline has no placeholder")
	}
}

func TestWriteAttribution(t *testing.T) {
	var a TileAttribution
	a.Loads, a.TotalCycles = 10, 100
	a.Cycles[BucketL1], a.Cycles[BucketDRAM] = 25, 75
	a.ByLevel[LevelL1], a.ByLevel[LevelDRAM] = 8, 2
	var buf bytes.Buffer
	WriteAttribution(&buf, a)
	out := buf.String()
	for _, want := range []string{"10 loads", "avg 10.0", "25.0%", "75.0%", "dram", "served at:", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	WriteAttribution(&buf, TileAttribution{})
	if !strings.Contains(buf.String(), "no probed loads") {
		t.Error("empty attribution has no placeholder")
	}
}

func TestHeatChar(t *testing.T) {
	if heatChar(0, 100) != ' ' || heatChar(5, 0) != ' ' {
		t.Error("idle links must render blank")
	}
	if heatChar(1, 1000) != heatRamp[1] {
		t.Error("non-zero traffic must be visible")
	}
	if heatChar(1000, 1000) != heatRamp[len(heatRamp)-1] {
		t.Error("max traffic must use the hottest shade")
	}
}

func TestRenderLinkHeatmap(t *testing.T) {
	flits := make([]uint64, 2*2*NumLinkDirs)
	flits[0*NumLinkDirs+DirEast] = 100 // tile 0 -> east
	flits[1*NumLinkDirs+DirWest] = 50  // tile 1 -> west
	flits[0*NumLinkDirs+DirSouth] = 25 // tile 0 -> south
	var buf bytes.Buffer
	RenderLinkHeatmap(&buf, 2, 2, flits)
	out := buf.String()
	for _, want := range []string{"max 100 flits", "[00]", "[03]", "@", "pairs:"} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	RenderLinkHeatmap(&buf, 2, 2, nil)
	if !strings.Contains(buf.String(), "no link data") {
		t.Error("short flit slice not rejected")
	}
}

func TestTracerRendererMethods(t *testing.T) {
	tr := populated()
	var buf bytes.Buffer
	WriteTimeline(&buf, tr.Cycles(), tr.Spans())
	RenderLinkHeatmap(&buf, tr.cfg.MeshW, tr.cfg.MeshH, tr.LinkFlits())
	WriteAttribution(&buf, tr.Attribution())
	if buf.Len() == 0 {
		t.Error("renderers produced no output")
	}
}
