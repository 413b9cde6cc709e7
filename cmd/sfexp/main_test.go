package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamfloat/internal/experiments"
)

// TestValidateSweepFlags walks every branch of validateSweepFlags: each bad
// value or output combination is a usage error naming its flag, and the
// defaults pass.
func TestValidateSweepFlags(t *testing.T) {
	type flags struct {
		explicit      []string
		scale         float64
		workers, k, m int
		chart         string
		csv, json     bool
	}
	ok := flags{scale: 0.25, k: 16}
	for _, tc := range []struct {
		name string
		f    flags
		want string // substring of the error; "" = valid
	}{
		{"defaults", ok, ""},
		{"explicit settings", flags{explicit: []string{"workers", "sample-measure"}, scale: 1, workers: 2, k: 16, m: 3}, ""},
		{"zero scale", flags{scale: 0, k: 16}, "-scale must be positive"},
		{"negative scale", flags{scale: -0.5, k: 16}, "-scale must be positive"},
		{"explicit zero workers", flags{explicit: []string{"workers"}, scale: 0.25, k: 16}, "-workers must be positive"},
		{"negative workers", flags{explicit: []string{"workers"}, scale: 0.25, workers: -1, k: 16}, "-workers must be positive"},
		{"zero intervals", flags{scale: 0.25}, "-sample-intervals must be positive"},
		{"negative intervals", flags{scale: 0.25, k: -4}, "-sample-intervals must be positive"},
		{"explicit zero measure", flags{explicit: []string{"sample-measure"}, scale: 0.25, k: 16}, "-sample-measure must be positive"},
		{"measure beyond intervals", flags{scale: 0.25, k: 4, m: 5}, "cannot exceed -sample-intervals"},
		{"chart under tables", flags{scale: 0.25, k: 16, chart: "speedup"}, ""},
		{"csv alone", flags{scale: 0.25, k: 16, csv: true}, ""},
		{"json alone", flags{scale: 0.25, k: 16, json: true}, ""},
		{"json and csv", flags{scale: 0.25, k: 16, csv: true, json: true}, "mutually exclusive"},
		{"chart with csv", flags{scale: 0.25, k: 16, chart: "speedup", csv: true}, "-chart"},
		{"chart with json", flags{scale: 0.25, k: 16, chart: "speedup", json: true}, "-chart"},
	} {
		explicit := map[string]bool{}
		for _, name := range tc.f.explicit {
			explicit[name] = true
		}
		err := validateSweepFlags(sweepFlags{
			explicit: explicit, scale: tc.f.scale, workers: tc.f.workers, k: tc.f.k, m: tc.f.m,
			chart: tc.f.chart, asCSV: tc.f.csv, asJSON: tc.f.json,
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestEmitFormats drives the one output loop over stub figures in every
// format: text prints each table as it finishes with its chart, if it has
// one, under it, a lone figure closes with a blank line, CSV goes to the writer or to one
// file per figure, JSON is written once, and a failing figure aborts with
// its id in the error.
func TestEmitFormats(t *testing.T) {
	tables := map[string]*experiments.Table{
		"one": {Title: "One", Header: []string{"a"}, Rows: [][]string{{"1"}}, Metrics: map[string]float64{"x-speedup": 2}},
		"two": {Title: "Two", Header: []string{"b"}, Rows: [][]string{{"2"}}},
	}
	run := func(id string) (*experiments.Table, error) {
		if tb, ok := tables[id]; ok {
			return tb, nil
		}
		return nil, errors.New("boom")
	}
	emitted := func(ids []string, out output) string {
		t.Helper()
		var buf bytes.Buffer
		if err := emit(&buf, ids, run, out); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range []struct {
		name string
		ids  []string
		out  output
		want string
	}{
		{"text", []string{"one", "two"}, output{}, "== One ==\na\n1\n\n== Two ==\nb\n2\n\n"},
		{"lone text", []string{"one"}, output{}, "== One ==\na\n1\n\n\n"},
		{"text with charts", []string{"one", "two"}, output{chart: "speedup"},
			"== One ==\na\n1\n\nspeedup (relative)\n  x   2.00 |################################################\n\n== Two ==\nb\n2\n\n"},
		{"csv", []string{"one"}, output{csv: true}, "a\n1\n"},
		{"json", []string{"one", "two"}, output{json: true}, ""},
	} {
		got := emitted(tc.ids, tc.out)
		if tc.out.json {
			var doc struct {
				Figures []experiments.NamedTable `json:"figures"`
			}
			if err := json.Unmarshal([]byte(got), &doc); err != nil || len(doc.Figures) != 2 ||
				doc.Figures[0].Name != "one" || doc.Figures[1].Table.Title != "Two" {
				t.Errorf("json: %v, report:\n%s", err, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %q, want %q", tc.name, got, tc.want)
		}
	}

	dir := filepath.Join(t.TempDir(), "nested", "out")
	if got := emitted([]string{"one", "two"}, output{csv: true, csvDir: dir}); got != "" {
		t.Errorf("per-figure CSV wrote %q to the writer", got)
	}
	for name, want := range map[string]string{"one.csv": "a\n1\n", "two.csv": "b\n2\n"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Errorf("%s = %q, want %q", name, b, want)
		}
	}

	if err := emit(io.Discard, []string{"one", "bad"}, run, output{}); err == nil || !strings.Contains(err.Error(), "bad: boom") {
		t.Errorf("figure error not propagated with its id: %v", err)
	}
}

// TestVMHWM parses the peak-RSS line of a /proc/self/status fixture, and
// reports nothing for a status without one or with a garbled value.
func TestVMHWM(t *testing.T) {
	const status = "Name:\tsfexp\nVmPeak:\t 1418760 kB\nVmSize:\t 1418760 kB\nVmHWM:\t   75940 kB\nVmRSS:\t   70212 kB\nThreads:\t8\n"
	if kb, ok := vmHWM([]byte(status)); !ok || kb != 75940 {
		t.Errorf("vmHWM = %d, %v; want 75940, true", kb, ok)
	}
	for _, bad := range []string{"", "Name:\tsfexp\nVmRSS:\t 70212 kB\n", "VmHWM:\n", "VmHWM:\t lots kB\n"} {
		if kb, ok := vmHWM([]byte(bad)); ok {
			t.Errorf("vmHWM(%q) = %d, true; want false", bad, kb)
		}
	}
}
