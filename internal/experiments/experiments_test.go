package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/system"
)

// tinyOpts keeps experiment tests fast: a benchmark subset at small scale.
// Mesh sizes stay as each figure dictates. The golden files were recorded
// at these options, so any change here invalidates every one of them.
func tinyOpts() Options {
	return Options{Scale: 0.05, Benchmarks: []string{"nn", "conv3d"}}
}

// runAll sweeps hand-built keys the way a figure sweeps its grid and
// returns each point's Results.
func runAll(ctx context.Context, opts Options, keys []runKey) ([]system.Results, error) {
	res, _, _, err := runRecords(ctx, opts, keys)
	return res, err
}

// runRecords is runAll plus the sweep's per-point records: the sampled
// estimates and failures figure.run folds into a table.
func runRecords(ctx context.Context, opts Options, keys []runKey) ([]system.Results, []PointEstimate, []PointFailure, error) {
	cells, err := sweep(ctx, opts, keys)
	res := make([]system.Results, len(cells))
	for i, c := range cells {
		res[i] = c.Results
	}
	ests, fails := records(keys, cells)
	return res, ests, fails, err
}

// figureTable regenerates figure id through ByName, the production path.
func figureTable(t *testing.T, id string, opts Options) *Table {
	t.Helper()
	fn, ok := ByName(id)
	if !ok {
		t.Fatalf("figure %q not registered", id)
	}
	tb, err := fn(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// tinyTables memoises each figure's table at tinyOpts, so a figure's shape
// test and its golden test share one sweep. Callers must not mutate a table.
var tinyTables struct {
	sync.Mutex
	m map[string]*Table
}

// tinyTable returns figure id's table at tinyOpts, sweeping it only once
// per test binary.
func tinyTable(t *testing.T, id string) *Table {
	t.Helper()
	tinyTables.Lock()
	defer tinyTables.Unlock()
	if tb, ok := tinyTables.m[id]; ok {
		return tb
	}
	tb := figureTable(t, id, tinyOpts())
	if tinyTables.m == nil {
		tinyTables.m = map[string]*Table{}
	}
	tinyTables.m[id] = tb
	return tb
}

func TestTablePrinting(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean = %v", g)
	}
	if geomean(nil) != 0 {
		t.Error("empty geomean must be 0")
	}
	if geomean([]float64{1, 0}) != 0 {
		t.Error("non-positive values must yield 0")
	}
}

func TestByName(t *testing.T) {
	for _, id := range []string{"2", "13", "14", "15", "16", "17", "18", "19", "area", "fig13"} {
		if _, ok := ByName(id); !ok {
			t.Errorf("ByName(%q) missing", id)
		}
	}
	for _, id := range []string{"ablations"} {
		if _, ok := ByName(id); !ok {
			t.Errorf("ByName(%q) missing", id)
		}
	}
	if _, ok := ByName("20"); ok {
		t.Error("ByName accepted an unknown figure")
	}
}

func TestAreaTable(t *testing.T) {
	tb := figureTable(t, "area", Options{})
	if len(tb.Rows) != 2 {
		t.Fatalf("area rows = %d", len(tb.Rows))
	}
}

func TestFig13Tiny(t *testing.T) {
	tb := tinyTable(t, "13")
	// 3 cores x 4 non-base systems.
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Metrics["SF-IO4-speedup"] <= 0 {
		t.Error("missing SF-IO4 speedup metric")
	}
	// The qualitative headline at any scale: SF-IO4 beats Base-IO4.
	if tb.Metrics["SF-IO4-speedup"] < 1.0 {
		t.Errorf("SF-IO4 speedup %.2f < 1", tb.Metrics["SF-IO4-speedup"])
	}
}

func TestFig14Tiny(t *testing.T) {
	tb := tinyTable(t, "14")
	if tb.Metrics["floated-share"] <= 0 {
		t.Error("no floated requests measured")
	}
}

func TestFig15Tiny(t *testing.T) {
	tb := tinyTable(t, "15")
	if len(tb.Rows) != 9 {
		t.Fatalf("variants = %d", len(tb.Rows))
	}
	if tb.Metrics["Base-traffic"] != 1.0 {
		t.Errorf("Base traffic normalization = %v", tb.Metrics["Base-traffic"])
	}
	if tb.Metrics["SF-traffic"] >= tb.Metrics["Base-traffic"] {
		t.Errorf("SF traffic %.3f not below Base", tb.Metrics["SF-traffic"])
	}
}

func TestFig16Tiny(t *testing.T) {
	tb := figureTable(t, "16", tinyOpts())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig17Tiny(t *testing.T) {
	tb := figureTable(t, "17", tinyOpts())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, g := range []string{"64", "256", "1024", "4096"} {
		if tb.Metrics["SF-"+g+"B"] <= 0 {
			t.Errorf("missing SF-%sB metric", g)
		}
	}
}

func TestFig18Tiny(t *testing.T) {
	tb := figureTable(t, "18", tinyOpts())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Metrics["SF-over-SS-8x8"] <= 0 {
		t.Error("missing 8x8 metric")
	}
}

func TestFig19Tiny(t *testing.T) {
	tb := figureTable(t, "19", tinyOpts())
	if len(tb.Rows) != 15 {
		t.Fatalf("points = %d", len(tb.Rows))
	}
	// Both axes must be populated for every point.
	if tb.Metrics["Base-OOO8-energy"] <= 0 || tb.Metrics["SF-IO4-speedup"] <= 0 {
		t.Error("missing scatter metrics")
	}
	if tb.Metrics["Base-IO4-speedup"] != 1.0 {
		t.Errorf("reference point speedup = %v, want 1", tb.Metrics["Base-IO4-speedup"])
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	_, err := runAll(context.Background(), tinyOpts(), []runKey{{bench: "missing", system: "Base", core: config.OOO8}})
	if err == nil {
		t.Error("unknown benchmark not reported")
	}
	_, err = runAll(context.Background(), tinyOpts(), []runKey{{bench: "nn", system: "wat", core: config.OOO8}})
	if err == nil {
		t.Error("unknown system not reported")
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x", "1"}, {"y", "2"}},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx,1\ny,2\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestChart(t *testing.T) {
	tb := &Table{Metrics: map[string]float64{
		"SF-IO4-speedup":  3.2,
		"SS-IO4-speedup":  1.9,
		"Base-IO4-energy": 1.0,
	}}
	var buf bytes.Buffer
	if !tb.Chart(&buf, "speedup", 20) {
		t.Error("chart with matching metrics reported nothing drawn")
	}
	out := buf.String()
	if !strings.Contains(out, "SF-IO4") || !strings.Contains(out, "####") {
		t.Errorf("chart output:\n%s", out)
	}
	if strings.Contains(out, "energy") {
		t.Error("chart leaked non-matching metrics")
	}
	var empty bytes.Buffer
	if tb.Chart(&empty, "nothing", 20) || empty.Len() != 0 {
		t.Error("empty suffix must render nothing")
	}
}
