package system

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"streamfloat/internal/sanitize"
)

// Stream-lifecycle oracle: two SHA-256 digests over what the stream engines
// report about a floated stream's life (float, config, migrate, sink, end),
// one through the tracer and one through the sanitizer. They were generated
// before the lifecycle was restated as one state/edge table and must not move
// under any change that is meant to be bit-identical: a digest that moves
// means a span, an event or a record changed, not only a statistic.
const (
	// SF/OOO8 4x4 mv at 0.05, traced, probes off: JSON of Spans and Events.
	lifecycleTraceDigest = "6ca20032c45aa2b507f21eb17654d6123e1e3db8da944cd21bd12d381787bc8b"
	// SF/OOO8 2x2 mv at 0.03, probed: Traced() and the formatted sanitizer
	// ring, which at this size still holds every record of the run.
	lifecycleSanitizeDigest = "1499c6c5751d40f0ac781e06a4d4a8e790371bf3337577a3599c48e2331f0a69"
)

func digestOf(t *testing.T, what, got, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(got))
	if h := hex.EncodeToString(sum[:]); h != want {
		t.Errorf("%s digest %s, want %s", what, h, want)
	}
}

// TestStreamLifecycleOracle pins the tracer's spans and events and the
// sanitizer's record tail for two SF points whose streams float, migrate,
// sink and end.
func TestStreamLifecycleOracle(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		cfg := testConfig("SF")
		cfg.Sanitize = sanitize.ModeOff
		res, tr, err := RunBenchmarkTraced(context.Background(), cfg, "mv", "SF/OOO8", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StreamsSunk == 0 || res.Stats.StreamMigrations == 0 {
			t.Fatalf("the point no longer sinks (%d) and migrates (%d)", res.Stats.StreamsSunk, res.Stats.StreamMigrations)
		}
		data, err := json.Marshal(struct {
			Spans  any
			Events any
		}{tr.Spans(), tr.Events()})
		if err != nil {
			t.Fatal(err)
		}
		digestOf(t, "trace", string(data), lifecycleTraceDigest)
	})
	t.Run("sanitize", func(t *testing.T) {
		cfg := testConfig("SF")
		cfg.MeshWidth, cfg.MeshHeight = 2, 2
		cfg.Sanitize = sanitize.ModeOn
		m, err := Build(cfg, "mv", 0.03)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StreamsSunk == 0 || res.Stats.StreamMigrations == 0 {
			t.Fatalf("the point no longer sinks (%d) and migrates (%d)", res.Stats.StreamsSunk, res.Stats.StreamMigrations)
		}
		out := fmt.Sprintf("traced %d\n", m.Chk.Traced())
		for _, r := range m.Chk.Recent(0, sanitize.DefaultDepth) {
			out += r.String() + "\n"
		}
		digestOf(t, "sanitize", out, lifecycleSanitizeDigest)
	})
}
