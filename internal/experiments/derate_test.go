package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// withProcs pins GOMAXPROCS for the duration of the test so the derate
// arithmetic is checked against a known processor count.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelismDerate: the sweep fan-out shrinks so that concurrent
// simulations times shard workers never oversubscribes GOMAXPROCS.
func TestParallelismDerate(t *testing.T) {
	withProcs(t, 8)
	cases := []struct {
		par, workers, want int
		noted              bool
	}{
		{0, 0, 8, false}, // defaults: fan out to GOMAXPROCS, 1 worker each
		{3, 1, 3, false}, // explicit bound, sequential kernel: untouched
		{0, 2, 4, true},  // 8 procs / 2 workers
		{0, 4, 2, true},  // 8 procs / 4 workers
		{0, 16, 1, true}, // workers alone exceed procs: floor at 1
		{2, 4, 2, false}, // 2x4 = 8 fits exactly: no derate
		{8, 4, 2, true},  // 8x4 = 32 does not
	}
	for _, c := range cases {
		o := Options{Parallelism: c.par, Workers: c.workers}
		if got := o.parallelism(); got != c.want {
			t.Errorf("parallelism(par=%d, workers=%d) = %d, want %d", c.par, c.workers, got, c.want)
		}
		note := o.derateNote()
		if c.noted && note == "" {
			t.Errorf("par=%d workers=%d: expected a derate note", c.par, c.workers)
		}
		if !c.noted && note != "" {
			t.Errorf("par=%d workers=%d: unexpected note %q", c.par, c.workers, note)
		}
	}
}

// TestDerateNoteContent: the note names both bounds so a run summary is
// self-explanatory.
func TestDerateNoteContent(t *testing.T) {
	withProcs(t, 4)
	o := Options{Workers: 2}
	note := o.derateNote()
	for _, want := range []string{"derated 4 -> 2", "2 workers", "GOMAXPROCS=4"} {
		if !strings.Contains(note, want) {
			t.Errorf("derate note %q missing %q", note, want)
		}
	}
}
