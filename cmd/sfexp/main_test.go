package main

import (
	"strings"
	"testing"
)

// TestValidateSweepFlags walks every branch of validateSweepFlags: each bad
// value is a usage error naming its flag, and the defaults pass.
func TestValidateSweepFlags(t *testing.T) {
	type flags struct {
		explicit      []string
		scale         float64
		workers, k, m int
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
	} {
		explicit := map[string]bool{}
		for _, name := range tc.f.explicit {
			explicit[name] = true
		}
		err := validateSweepFlags(explicit, tc.f.scale, tc.f.workers, tc.f.k, tc.f.m)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
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
