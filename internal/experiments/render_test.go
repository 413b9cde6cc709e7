package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

// TestFprintAlignment pins the aligned-table renderer: columns pad to the
// widest cell and trailing spaces are trimmed.
func TestFprintAlignment(t *testing.T) {
	tb := &Table{
		Title:  "align",
		Header: []string{"short", "h"},
		Rows:   [][]string{{"x", "longer-cell"}, {"yy", "z"}},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(buf.String(), "\n")
	if lines[1] != "short  h" {
		t.Errorf("header line = %q", lines[1])
	}
	if lines[2] != "x      longer-cell" {
		t.Errorf("row line = %q (short cells must pad to the column width)", lines[2])
	}
	for _, l := range lines {
		if strings.TrimRight(l, " ") != l {
			t.Errorf("line %q has trailing spaces", l)
		}
	}
	// Rows wider than the header keep every cell, matching WriteCSV.
	wide := &Table{Header: []string{"a"}, Rows: [][]string{{"1", "2", "3"}}}
	var wb bytes.Buffer
	wide.Fprint(&wb)
	for _, cell := range []string{"2", "3"} {
		if !strings.Contains(wb.String(), cell) {
			t.Errorf("cell %q beyond the header was dropped", cell)
		}
	}
}

// TestWriteCSVQuoting verifies cells with commas and quotes survive a CSV
// round trip.
func TestWriteCSVQuoting(t *testing.T) {
	tb := &Table{
		Header: []string{"name", "values"},
		Rows:   [][]string{{"a,b", `say "hi"`}},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][0] != "a,b" || recs[1][1] != `say "hi"` {
		t.Errorf("round trip = %q", recs)
	}
}

func TestChartWidthAndScaling(t *testing.T) {
	tb := &Table{Metrics: map[string]float64{
		"big-speedup":   4.0,
		"small-speedup": 0.01,
	}}
	var buf bytes.Buffer
	tb.Chart(&buf, "speedup", 0) // width <= 0 falls back to the default 40
	out := buf.String()
	if !strings.Contains(out, strings.Repeat("#", 40)) {
		t.Errorf("max bar not default width:\n%s", out)
	}
	// A tiny but non-zero value still renders at least one mark.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "small") && !strings.Contains(line, "#") {
			t.Errorf("tiny bar invisible: %q", line)
		}
	}
	// All-zero metrics render nothing.
	zero := &Table{Metrics: map[string]float64{"z-speedup": 0}}
	var zb bytes.Buffer
	zero.Chart(&zb, "speedup", 10)
	if zb.Len() != 0 {
		t.Error("all-zero chart must render nothing")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{"fig2", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "area", "ablations", "latency"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestLatencyBreakdownTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("traced sweep")
	}
	tb := figureTable(t, "latency", tinyOpts())
	// 2 benchmarks x 2 systems.
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, sys := range []string{"Base", "SF"} {
		for _, b := range []string{"nn", "conv3d"} {
			if tb.Metrics[sys+"-"+b+"-avg-latency"] <= 0 {
				t.Errorf("missing %s/%s avg latency", sys, b)
			}
			// Bucket shares sum to ~1 (everything attributed somewhere).
			var sum float64
			for _, bk := range []string{"core-wait", "l1", "l2", "noc", "l3", "dram"} {
				sum += tb.Metrics[sys+"-"+b+"-"+bk]
			}
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("%s/%s bucket shares sum to %.3f", sys, b, sum)
			}
		}
	}
}
