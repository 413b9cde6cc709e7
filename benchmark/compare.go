package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadReports reads one report file, or every *.json report in a directory,
// keyed by workload.
func loadReports(path string) (map[string]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]*report{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rep.Workload == "" || rep.Traced {
			continue // not an end-to-end report
		}
		out[rep.Workload] = &rep
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end reports", path)
	}
	return out, nil
}

// compare prints, for every (metric, workload) the two sides share, the new
// value as a ratio of the base value (with the base), the worsening next to
// the metric's bound, and a verdict: "ok", "REGRESSION" (worse by more than
// the bound), or "unresolved" (a side's own pass-to-pass spread is wider than
// the bound, so the row decides nothing). It returns the exit code: 0 when
// every row is ok or unresolved, 1 on a regression, a changed stats digest or
// failed operations, 2 when the two sides are not comparable.
func compare(w io.Writer, basePath, newPath string) int {
	base, err := loadReports(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cur, err := loadReports(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var names []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two sides share no workload")
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %8s %9s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "worse", "bound", "verdict")
	for _, name := range names {
		a, b := base[name], cur[name]
		if !a.Host.sameHost(b.Host) || a.Parallelism != b.Parallelism || a.Workers != b.Workers || a.Sizes != b.Sizes {
			fmt.Fprintf(os.Stderr, "benchmark: %s: refusing to compare across hosts or settings:\n  base %+v parallelism %d workers %d %s\n  new  %+v parallelism %d workers %d %s\n",
				name, a.Host, a.Parallelism, a.Workers, a.Sizes, b.Host, b.Parallelism, b.Workers, b.Sizes)
			return 2
		}
		if !a.Correct || !b.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: refusing to compare a run that failed its correctness gates\n", name)
			return 2
		}
		for _, spec := range endToEnd {
			x, y := a.Metrics[spec.Name], b.Metrics[spec.Name]
			if x.Value == 0 {
				continue
			}
			worse := (y.Value - x.Value) / x.Value
			if spec.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case x.spread() > spec.Bound || y.spread() > spec.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*x.spread(), 100*y.spread())
			case worse > spec.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-12s %14.4f %14.4f %7.3fx %+8.1f%% %6.0f%%  %s\n",
				name, spec.Name, x.Value, y.Value, y.Value/x.Value, 100*worse, 100*spec.Bound, verdict)
		}
		digest := "identical"
		if a.StatsDigest != b.StatsDigest {
			digest = "DIFFERS"
			code = 1
		}
		fmt.Fprintf(w, "%-18s %-12s %14g %14g %31s\n", name, "failed_frac", a.FailedFrac, b.FailedFrac, "stats_digest "+digest)
		if a.FailedFrac > 0 || b.FailedFrac > 0 {
			code = 1
		}
	}
	return code
}
