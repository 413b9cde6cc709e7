package cache_test

import (
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/system"
)

// TestSlabBytesFollowFilledSets: host memory follows the sets a run fills,
// not the geometry, and a way costs what its level needs. On the second
// scale-0.03 SF/OOO8 mv point, built on the slabs the first released, the
// arrays hold at most twice the bytes of the blocks the run filled (slabs
// grow by doubling) and under a quarter of Table III's dense arrays. In
// absolute terms (linux/amd64), the filled sets take 4.4 MiB, the slabs hold
// 4.6 MiB and the dense arrays would hold 25.4 MiB; while every way carried
// the directory (28 bytes) these were 7.3, 7.8 and 35.9 MiB, so the ceilings
// below fail that layout. The held ceiling is skipped under the race
// detector, whose sync.Pool drops slabs at random and leaves some to regrow
// by doubling. Unsanitized: a checked array regrows from empty.
func TestSlabBytesFollowFilledSets(t *testing.T) {
	cfg, err := config.ForSystem("SF", config.OOO8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sanitize = sanitize.ModeOff
	point := func() *system.Machine {
		m, err := system.Build(cfg, "mv", 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m
	}
	point().Release()
	m := point()
	held, filled, dense := m.Caches.SlabBytes()
	m.Release()
	t.Logf("slabs hold %.1f MB for %.1f MB of filled sets; dense arrays would hold %.1f MB",
		float64(held)/(1<<20), float64(filled)/(1<<20), float64(dense)/(1<<20))
	if held > 2*filled {
		t.Errorf("slabs hold %d bytes, more than twice the %d bytes of filled sets", held, filled)
	}
	if 4*held >= dense {
		t.Errorf("slabs hold %d bytes, not under a quarter of the dense %d", held, dense)
	}
	if filled >= 5<<20 {
		t.Errorf("filled sets take %.1f MiB, want < 5 MiB", float64(filled)/(1<<20))
	}
	if held >= 6<<20 && !raceEnabled {
		t.Errorf("slabs hold %.1f MiB, want < 6 MiB", float64(held)/(1<<20))
	}
	if dense >= 26<<20 {
		t.Errorf("dense arrays would hold %.1f MiB, want < 26 MiB", float64(dense)/(1<<20))
	}
}
