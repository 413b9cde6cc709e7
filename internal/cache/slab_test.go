package cache_test

import (
	"testing"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// TestSlabBytesFollowHeldLines: host memory follows the lines a run holds,
// not the geometry, and a way costs what its level needs. A scale-0.03
// SF/OOO8 mv point, built on fresh slabs (the pool bypassed, so the figure
// does not depend on what earlier tests released), ends with slabs that hold
// at most three times the bytes of the ways holding a line (a set's block
// doubles as it fills, and a slab by whole chunks) and under 0.5 MiB, which
// slabs of a whole block of ways per filled set fail (4.6 MiB), as does a
// layout with the directory in every way. Table III's dense arrays would
// hold 25.4 MiB.
func TestSlabBytesFollowHeldLines(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize = sanitize.ModeOff
	defer cache.SetPoolBypass(true)()
	m, err := system.Build(cfg, "mv", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	held, blocks, lines, dense := m.Caches.SlabBytes()
	mib := func(b int) float64 { return float64(b) / (1 << 20) }
	t.Logf("slabs hold %.2f MiB: %.2f MiB of set blocks, %.2f MiB of held lines; dense arrays would hold %.1f MiB",
		mib(held), mib(blocks), mib(lines), mib(dense))
	if held > 3*lines {
		t.Errorf("slabs hold %d bytes, more than three times the %d bytes of held lines", held, lines)
	}
	if held >= 1<<19 {
		t.Errorf("slabs hold %.2f MiB, want < 0.5 MiB", mib(held))
	}
	if dense >= 26<<20 {
		t.Errorf("dense arrays would hold %.1f MiB, want < 26 MiB", mib(dense))
	}
}
