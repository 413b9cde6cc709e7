package config_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"streamfloat/internal/config"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stream"
	"streamfloat/internal/system"
)

// deriveConfig builds a valid, sanitized configuration from raw fuzz bytes:
// starting from Default(), it consumes (field selector, value) pairs and
// applies a bounded mutation per pair, touching every field the canonical
// encoding covers. All derived configurations pass Validate(), so the fuzz
// property quantifies over exactly the space the result cache serves.
func deriveConfig(data []byte) config.Config {
	c := config.Default()
	cacheMenu := func(p *config.CacheParams, v uint64) {
		p.Ways = 1 << (v % 5) // 1..16
		p.SizeBytes = int(1+(v>>3)%64) * p.Ways * stream.LineBytes
		p.LatCycles = int(1 + (v>>9)%40)
		p.BRRIPProb = float64((v>>15)%101) / 100
		p.MSHREntries = int(1 + (v>>22)%64)
	}
	for len(data) >= 9 {
		sel := data[0]
		v := binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		switch sel % 25 {
		case 0:
			c.MeshWidth = int(1 + v%8)
		case 1:
			c.MeshHeight = int(1 + v%8)
		case 2:
			c.Core = config.CoreKind(v % 3)
		case 3:
			c.Prefetch = config.PrefetchKind(v % 3)
		case 4:
			c.Stream = config.StreamMode(v % 3)
		case 5:
			c.FloatIndirect = v&1 == 1
		case 6:
			c.FloatConfluence = v&1 == 1
		case 7:
			c.BulkPrefetch = v&1 == 1
		case 8:
			c.LinkBits = []int{128, 256, 512}[v%3]
		case 9:
			c.RouterLatency = int(1 + v%8)
		case 10:
			c.LinkLatency = int(1 + v%4)
		case 11:
			cacheMenu(&c.L1, v)
		case 12:
			cacheMenu(&c.L2, v)
		case 13:
			cacheMenu(&c.L3, v)
		case 14:
			c.L3InterleaveBytes = 64 << (v % 7) // 64B..4kB
		case 15:
			c.DRAMLatency = int(1 + v%500)
		case 16:
			c.DRAMBandwidthBpc = 0.1 + float64(v%1000)/10
		case 17:
			c.MaxStreamsPerCore = int(1 + v%32)
		case 18:
			c.SEL2BufferBytes = int(1 + v%(64<<10))
		case 19:
			c.FloatMinRequests = int(v % 1024)
		case 20:
			c.FloatMissRatio = float64(v%100) / 100
		case 21:
			c.SinkHitThreshold = int(v % 64)
		case 22:
			c.ConfluenceBlock = int(1 + v%4)
		case 23:
			c.Sanitize = sanitize.Mode(v % 3)
		case 24:
			// Sampling parameters, including disabled (Intervals 0/1) and
			// out-of-range Measure spellings the resolver clamps.
			c.Sample = config.SampleParams{
				Intervals: int(v % 10),
				Measure:   int((v >> 8) % 12),
				Seed:      int64((v >> 16) % 1024),
				Warmup:    int64((v >> 28) % 4096),
			}
		}
	}
	// Sanitize the cross-field constraints Validate enforces: floating
	// toggles only exist under StreamSF, and the NUCA interleave must cover
	// the L3 line size.
	if c.Stream != config.StreamSF {
		c.FloatIndirect = false
		c.FloatConfluence = false
	}
	if c.L3InterleaveBytes < stream.LineBytes {
		c.L3InterleaveBytes = stream.LineBytes
	}
	return c
}

// resolved is a config with its sanitize mode cleared and its sampling
// parameters normalized — the equality CanonicalBytes is specified against:
// every sanitize mode runs the same simulation, and disabled/defaulted
// sampling spellings run the same simulation as their resolved form.
func resolved(c config.Config) config.Config {
	c.Sanitize = sanitize.ModeAuto
	c.Sample = c.Sample.Resolved()
	return c
}

// FuzzCanonicalBytes checks the two properties the content-addressed result
// cache stands on: distinct sanitized configurations never share a
// CanonicalBytes encoding (hence never a CacheKey — aliasing would serve one
// point's results for another), and equal configurations always share one
// (or caching would silently stop deduplicating). It also round-trips each
// configuration through JSON — the wire format cluster clients ship to
// backends — and requires the encoding, and therefore the key, to survive.
func FuzzCanonicalBytes(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{4, 2, 0, 0, 0, 0, 0, 0, 0}, []byte{4, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{24, 1, 0, 0, 0, 0, 0, 0, 0}, []byte{24, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 1, 0, 0, 0, 0, 0, 0, 0, 15, 3, 0, 0, 0, 0, 0, 0, 0}, []byte{12, 7, 1, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ca, cb := deriveConfig(a), deriveConfig(b)
		if err := ca.Validate(); err != nil {
			t.Fatalf("derived config invalid: %v\n%+v", err, ca)
		}
		if err := cb.Validate(); err != nil {
			t.Fatalf("derived config invalid: %v\n%+v", err, cb)
		}
		ea, eb := ca.CanonicalBytes(), cb.CanonicalBytes()
		same := reflect.DeepEqual(resolved(ca), resolved(cb))
		if same && !bytes.Equal(ea, eb) {
			t.Errorf("equal configs encode differently:\n%x\n%x", ea, eb)
		}
		if !same && bytes.Equal(ea, eb) {
			t.Errorf("distinct configs share a canonical encoding (cache aliasing):\n%+v\n%+v", ca, cb)
		}
		if same != (system.CacheKey(ca, "nn", 0.25) == system.CacheKey(cb, "nn", 0.25)) {
			t.Errorf("CacheKey equality disagrees with config equality")
		}

		wire, err := json.Marshal(ca)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var rt config.Config
		if err := json.Unmarshal(wire, &rt); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !bytes.Equal(rt.CanonicalBytes(), ea) {
			t.Errorf("JSON round-trip changed the canonical encoding:\nbefore %x\nafter  %x", ea, rt.CanonicalBytes())
		}
	})
}
