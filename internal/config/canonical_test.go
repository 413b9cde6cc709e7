package config

import (
	"bytes"
	"reflect"
	"testing"

	"streamfloat/internal/sanitize"
)

// TestCanonicalCoversAllFields is the tripwire for cache-key soundness: if a
// field is added to Config without extending CanonicalBytes (and bumping
// canonicalVersion), two configs differing only in that field would alias to
// one cache entry and serve wrong results. The constant forces the author of
// the new field to visit canonical.go.
func TestCanonicalCoversAllFields(t *testing.T) {
	n := reflect.TypeOf(Config{}).NumField()
	if n != CanonicalFieldCount {
		t.Fatalf("Config has %d fields but CanonicalFieldCount is %d: "+
			"extend Config.CanonicalBytes, bump canonicalVersion, then update the constant",
			n, CanonicalFieldCount)
	}
}

func TestCanonicalBytesDeterministic(t *testing.T) {
	cfg, err := ForSystem("SF", OOO8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cfg.CanonicalBytes(), cfg.CanonicalBytes()) {
		t.Error("CanonicalBytes not deterministic for one config")
	}
}

// TestCanonicalBytesDistinguishes: every simulation-affecting knob must
// change the encoding.
func TestCanonicalBytesDistinguishes(t *testing.T) {
	base, err := ForSystem("SF", OOO8)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.CanonicalBytes()

	muts := map[string]func(*Config){
		"MeshWidth":        func(c *Config) { c.MeshWidth++ },
		"Core":             func(c *Config) { c.Core = IO4 },
		"FloatIndirect":    func(c *Config) { c.FloatIndirect = !c.FloatIndirect },
		"L2.SizeBytes":     func(c *Config) { c.L2.SizeBytes *= 2 },
		"L3.BRRIPProb":     func(c *Config) { c.L3.BRRIPProb /= 2 },
		"DRAMLatency":      func(c *Config) { c.DRAMLatency++ },
		"FloatMissRatio":   func(c *Config) { c.FloatMissRatio += 0.01 },
		"ConfluenceBlock":  func(c *Config) { c.ConfluenceBlock++ },
		"Sample.Intervals": func(c *Config) { c.Sample.Intervals = 16 },
		"Sample.Measure":   func(c *Config) { c.Sample = SampleParams{Intervals: 16, Measure: 5} },
		"Sample.Seed":      func(c *Config) { c.Sample = SampleParams{Intervals: 16, Seed: 7} },
		"Sample.Warmup":    func(c *Config) { c.Sample = SampleParams{Intervals: 16, Warmup: 128} },
	}
	for name, mut := range muts {
		cfg := base
		mut(&cfg)
		if bytes.Equal(ref, cfg.CanonicalBytes()) {
			t.Errorf("mutating %s did not change CanonicalBytes", name)
		}
	}
}

// TestCanonicalBytesSampleResolved: sampling parameters are encoded in
// resolved form. Disabled sampling (Intervals <= 1) must encode identically
// to no sampling at all — an inert Seed on a disabled sampler runs the same
// simulation — while any enabled sampler must get a distinct key from the
// full-fidelity run (the aliasing the sampled-result cache must never
// allow). Defaulted and explicit Measure spellings of one sampled run share
// an encoding.
func TestCanonicalBytesSampleResolved(t *testing.T) {
	base, err := ForSystem("SF", OOO8)
	if err != nil {
		t.Fatal(err)
	}
	full := base.CanonicalBytes()

	disabled := base
	disabled.Sample = SampleParams{Intervals: 1, Measure: 9, Seed: 42, Warmup: 7}
	if !bytes.Equal(disabled.CanonicalBytes(), full) {
		t.Error("disabled sampling with inert parameters encodes differently from no sampling")
	}

	sampled := base
	sampled.Sample = SampleParams{Intervals: 16, Seed: 1}
	if bytes.Equal(sampled.CanonicalBytes(), full) {
		t.Error("sampled run shares the full-fidelity run's encoding (cache aliasing)")
	}

	explicit := sampled
	explicit.Sample.Measure = 3 // the resolved default of Measure = 0
	if !bytes.Equal(explicit.CanonicalBytes(), sampled.CanonicalBytes()) {
		t.Error("defaulted and explicit Measure encode differently for one sampled run")
	}

	otherSeed := sampled
	otherSeed.Sample.Seed = 2
	if bytes.Equal(otherSeed.CanonicalBytes(), sampled.CanonicalBytes()) {
		t.Error("different sample seeds share a canonical encoding")
	}
}

// TestCanonicalBytesIgnoresSanitize: the sanitizer only adds probes to the
// one schedule every machine runs (system's TestSanitizeInvariance holds
// sanitize on == off), so no spelling of the mode may reach the encoding —
// in particular ModeAuto, which resolves differently inside and outside
// `go test`, keys the same in both worlds.
func TestCanonicalBytesIgnoresSanitize(t *testing.T) {
	base, err := ForSystem("Base", OOO8)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.CanonicalBytes()
	for _, mode := range []sanitize.Mode{sanitize.ModeAuto, sanitize.ModeOn, sanitize.ModeOff} {
		cfg := base
		cfg.Sanitize = mode
		if !bytes.Equal(cfg.CanonicalBytes(), ref) {
			t.Errorf("Sanitize = %v changed CanonicalBytes", mode)
		}
	}
}
