package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WriteCSV emits the table as CSV (header row first), for spreadsheet or
// plotting pipelines.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Chart renders the table's Metrics whose names share the given suffix as a
// horizontal ASCII bar chart — a terminal rendition of the paper's bar
// figures. Bars are sorted by name; width is the maximum bar length in
// characters. Bars scale by absolute value: negative metrics render as an
// explicit '-' bar of the same magnitude, and non-finite values (NaN, ±Inf)
// are skipped rather than coerced. It reports whether it drew a chart.
func (t *Table) Chart(w io.Writer, suffix string, width int) bool {
	if width <= 0 {
		width = 40
	}
	type bar struct {
		label string
		v     float64
	}
	var bars []bar
	maxV := 0.0
	for name, v := range t.Metrics {
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		label := strings.TrimSuffix(name, suffix)
		label = strings.TrimSuffix(label, "-")
		bars = append(bars, bar{label, v})
		if a := math.Abs(v); a > maxV {
			maxV = a
		}
	}
	if len(bars) == 0 || maxV == 0 {
		return false
	}
	sort.Slice(bars, func(i, j int) bool { return bars[i].label < bars[j].label })
	labelW := 0
	for _, b := range bars {
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	fmt.Fprintf(w, "%s (relative)\n", strings.TrimPrefix(suffix, "-"))
	for _, b := range bars {
		n := int(math.Abs(b.v) / maxV * float64(width))
		if n < 1 && b.v != 0 {
			n = 1
		}
		if n > width {
			n = width
		}
		ch := "#"
		if b.v < 0 {
			ch = "-"
		}
		fmt.Fprintf(w, "  %-*s %6.2f |%s\n", labelW, b.label, b.v, strings.Repeat(ch, n))
	}
	return true
}
