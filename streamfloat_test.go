package streamfloat

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func tiny(sys string, core CoreKind) Config {
	cfg, err := ConfigFor(sys, core)
	if err != nil {
		panic(err)
	}
	cfg.MeshWidth, cfg.MeshHeight = 2, 2
	return cfg
}

func TestFacadeLists(t *testing.T) {
	if len(Benchmarks()) < 12 {
		t.Errorf("benchmarks = %v", Benchmarks())
	}
	if len(Systems()) != 7 {
		t.Errorf("systems = %v", Systems())
	}
}

func TestFacadeRun(t *testing.T) {
	res, err := Run(tiny("SF", OOO4), "pathfinder", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles == 0 || res.Benchmark != "pathfinder" {
		t.Error("empty results")
	}
	if res.Sampled != nil {
		t.Error("full run reports a sampled estimate")
	}
}

// TestFacadeSampledRun: Run honours Config.Sample and returns the estimate
// with the Results.
func TestFacadeSampledRun(t *testing.T) {
	cfg, err := ConfigFor("SF", OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sample = SampleParams{Intervals: 8, Measure: 2}
	res, err := Run(cfg, "nn", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sampled
	if s == nil {
		t.Fatal("sampled run carries no estimate")
	}
	if !s.Cycles.Contains(float64(res.Stats.Cycles)) || s.Speedup() <= 1 {
		t.Errorf("estimate %+v (speedup %.2f) does not describe cycles %d", s, s.Speedup(), res.Stats.Cycles)
	}
}

func TestFacadeBuildAndInspect(t *testing.T) {
	m, err := Build(tiny("Base", IO4), "nn", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cores) != 4 {
		t.Errorf("cores = %d", len(m.Cores))
	}
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := ConfigFor("nope", OOO8); err == nil {
		t.Error("bad system accepted")
	}
	if _, err := Run(tiny("Base", IO4), "nope", 0.05); err == nil {
		t.Error("bad benchmark accepted")
	}
	if _, err := Experiment("99", ExperimentOptions{}); err == nil {
		t.Error("bad experiment accepted")
	}
}

func TestFacadeArea(t *testing.T) {
	a := Area(DefaultConfig())
	if a.ChipOverheadPct <= 0 {
		t.Error("area model returned nothing")
	}
}

func TestFacadeExperimentArea(t *testing.T) {
	tb, err := Experiment("area", ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if !strings.Contains(buf.String(), "chip ovh") {
		t.Error("area table malformed")
	}
}

// ExampleConfigFor shows building one of the paper's comparison systems.
func ExampleConfigFor() {
	cfg, _ := ConfigFor("SF", IO4)
	fmt.Println(cfg.Label(), cfg.L3InterleaveBytes)
	// Output: SF/IO4/8x8 1024
}

// ExampleArea reproduces the section VII-A area overheads.
func ExampleArea() {
	a := Area(DefaultConfig())
	fmt.Printf("SE_L3 config %.2f mm2, L3 overhead %.1f%%\n", a.SEL3ConfigMM2, a.L3OverheadPct)
	// Output: SE_L3 config 0.11 mm2, L3 overhead 4.3%
}
