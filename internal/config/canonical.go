package config

import (
	"encoding/binary"
	"math"
)

// canonicalVersion tags the CanonicalBytes layout. Bump it whenever the
// encoding below changes meaning (field added, removed, reordered, or a
// semantic change to an existing field): stale on-disk cache entries then
// simply stop matching instead of serving wrong results.
const canonicalVersion = 2

// CanonicalFieldCount is the number of top-level Config fields the canonical
// encoding accounts for. A test asserts it against reflect.TypeOf(Config{}).
// NumField() so that adding a Config field without extending CanonicalBytes
// (or deliberately excluding it below) fails loudly rather than silently
// aliasing distinct configurations. Workers and Sanitize are counted here but
// excluded from the encoding: they are host knobs with bit-identical results
// for every value, so runs that differ only in them share one cache key.
const CanonicalFieldCount = 27

// CanonicalBytes returns a deterministic, version-tagged binary encoding of
// every simulation-affecting Config field. Two configurations produce the
// same bytes iff they run the same simulation, so the encoding is a sound
// content-address component for result caches (see system.CacheKey).
func (c Config) CanonicalBytes() []byte {
	buf := make([]byte, 0, 256)
	u := func(v uint64) {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	i := func(v int) { u(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	cache := func(p CacheParams) {
		i(p.SizeBytes)
		i(p.Ways)
		i(p.LatCycles)
		i(p.LineBytes)
		f(p.BRRIPProb)
		i(p.MSHREntries)
	}

	u(canonicalVersion)
	i(c.MeshWidth)
	i(c.MeshHeight)
	i(int(c.Core))
	i(int(c.Prefetch))
	i(int(c.Stream))
	b(c.FloatIndirect)
	b(c.FloatConfluence)
	b(c.BulkPrefetch)
	b(c.StreamGrainCoherence)
	i(c.LinkBits)
	i(c.RouterLatency)
	i(c.LinkLatency)
	cache(c.L1)
	cache(c.L2)
	cache(c.L3)
	i(c.L3InterleaveBytes)
	i(c.DRAMLatency)
	f(c.DRAMBandwidthBpc)
	i(c.MaxStreamsPerCore)
	i(c.SEL2BufferBytes)
	i(c.FloatMinRequests)
	f(c.FloatMissRatio)
	i(c.SinkHitThreshold)
	i(c.ConfluenceBlock)
	// This word was the resolved sanitize bit while sanitized machines ran a
	// schedule of their own. They no longer do: the probes watch the one
	// schedule and a sanitized run's Results equal the unsanitized run's
	// (system's TestSanitizeInvariance), so Sanitize is a host knob like
	// Workers and stays out of the key. The word is kept, as the constant an
	// unsanitized run always wrote, instead of bumping canonicalVersion:
	// every entry cached under an unsanitized key is a result of the schedule
	// all machines now run and stays valid, while entries cached under
	// sanitized keys (the retired sequential schedule) can no longer be
	// looked up.
	u(0)
	// Sampling is encoded by its *resolved* parameters (like the sanitizer
	// mode): disabled sampling collapses to zeros regardless of inert Seed/
	// Measure values, and defaulted Measure encodes as its concrete value.
	// Sampled and full runs therefore never alias, but equivalent spellings
	// of the same sampled run share one key.
	sp := c.Sample.Resolved()
	i(sp.Intervals)
	i(sp.Measure)
	u(uint64(sp.Seed))
	u(uint64(sp.Warmup))
	// Workers is intentionally not encoded: the event kernel produces
	// bit-identical results for every worker count (see internal/par), so
	// the knob must not fragment the result cache.
	return buf
}
