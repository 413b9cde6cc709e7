package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"streamfloat/internal/par"
)

// hostInfo is the comparability metadata stamped on every report. -compare
// refuses to compare two reports whose host fields differ; Commit and Seed
// may differ.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	P          int    `json:"p"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

// loadWidth is P: how many goroutines or connections generate load, and the
// GOMAXPROCS the harness pins for the whole process.
func loadWidth() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func newHostInfo(p int, seed int64) hostInfo {
	commit := os.Getenv("SFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          p,
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
}

// sameHost reports whether two reports were taken under comparable
// conditions.
func (h hostInfo) sameHost(o hostInfo) bool {
	return h.CPUModel == o.CPUModel && h.NProc == o.NProc &&
		h.GOMAXPROCS == o.GOMAXPROCS && h.P == o.P && h.GoVersion == o.GoVersion
}

// procField returns the value of the first "name: value" line of a /proc file.
func procField(path, name string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so the next peakRSSMB reads the peak since this call.
// It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in MB.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// effectiveWorkers is the shard-worker count a machine with the given tile
// count actually runs after par.Group's clamp to [1, shards] and GOMAXPROCS.
func effectiveWorkers(workers, tiles int) int {
	w := workers
	if w < 1 {
		w = 1
	}
	if s := par.ShardsFor(tiles); w > s {
		w = s
	}
	if m := runtime.GOMAXPROCS(0); w > m {
		w = m
	}
	return w
}
