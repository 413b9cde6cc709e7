// Package config defines the simulated machine configuration. The defaults
// reproduce Table III of the paper: an 8x8 tiled multicore at 2.0 GHz with
// private L1/L2 caches, a shared static-NUCA L3, a 256-bit mesh NoC, DDR3
// memory controllers at the four corners, and stream-engine capacities for
// SEcore, SE_L2 and SE_L3.
package config

import (
	"errors"
	"fmt"

	"streamfloat/internal/sanitize"
)

// CoreKind selects one of the three evaluated core microarchitectures.
type CoreKind int

const (
	// IO4 is the 4-wide in-order core.
	IO4 CoreKind = iota
	// OOO4 is the 4-issue out-of-order core.
	OOO4
	// OOO8 is the 8-issue out-of-order core.
	OOO8
)

func (k CoreKind) String() string {
	switch k {
	case IO4:
		return "IO4"
	case OOO4:
		return "OOO4"
	case OOO8:
		return "OOO8"
	}
	return fmt.Sprintf("CoreKind(%d)", int(k))
}

// PrefetchKind selects the hardware prefetcher configuration.
type PrefetchKind int

const (
	// PrefetchNone disables all prefetching (the Base system).
	PrefetchNone PrefetchKind = iota
	// PrefetchStride is the L1Stride-L2Stride configuration.
	PrefetchStride
	// PrefetchBingo is the L1Bingo-L2Stride configuration.
	PrefetchBingo
)

func (k PrefetchKind) String() string {
	switch k {
	case PrefetchNone:
		return "None"
	case PrefetchStride:
		return "L1Stride-L2Stride"
	case PrefetchBingo:
		return "L1Bingo-L2Stride"
	}
	return fmt.Sprintf("PrefetchKind(%d)", int(k))
}

// StreamMode selects how much of the decoupled-stream machinery is enabled.
type StreamMode int

const (
	// StreamOff runs the plain core: loads go through the cache hierarchy.
	StreamOff StreamMode = iota
	// StreamSS enables the stream-specialized core (SEcore prefetching into
	// stream FIFOs) without floating — the "SS" system of the paper.
	StreamSS
	// StreamSF additionally allows streams to float to the L3 stream
	// engines — the "SF" system of the paper.
	StreamSF
)

func (m StreamMode) String() string {
	switch m {
	case StreamOff:
		return "Off"
	case StreamSS:
		return "SS"
	case StreamSF:
		return "SF"
	}
	return fmt.Sprintf("StreamMode(%d)", int(m))
}

// CoreParams are the pipeline parameters of one core (Table III).
type CoreParams struct {
	IssueWidth  int // instructions issued per cycle
	ROBSize     int // reorder-buffer entries (window source for OOO)
	LQSize      int // load-queue entries: bounds outstanding loads
	SQSize      int // store-queue entries
	InOrder     bool
	SEFIFOBytes int // SEcore stream FIFO capacity
}

// ParamsFor returns the Table III parameters for a core kind.
func ParamsFor(kind CoreKind) CoreParams {
	switch kind {
	case IO4:
		return CoreParams{IssueWidth: 4, ROBSize: 10, LQSize: 4, SQSize: 10, InOrder: true, SEFIFOBytes: 256}
	case OOO4:
		return CoreParams{IssueWidth: 4, ROBSize: 96, LQSize: 24, SQSize: 24, InOrder: false, SEFIFOBytes: 1024}
	case OOO8:
		return CoreParams{IssueWidth: 8, ROBSize: 224, LQSize: 72, SQSize: 56, InOrder: false, SEFIFOBytes: 2048}
	}
	panic("config: unknown core kind")
}

// CacheParams describe one cache level.
type CacheParams struct {
	SizeBytes   int
	Ways        int
	LatCycles   int // access (tag+data) latency
	LineBytes   int
	BRRIPProb   float64 // bimodal RRIP long-insertion probability
	MSHREntries int
}

// Sets returns the number of sets implied by size, ways and line size.
func (c CacheParams) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Config is the full machine configuration.
type Config struct {
	// Topology.
	MeshWidth  int
	MeshHeight int

	Core     CoreKind
	Prefetch PrefetchKind
	Stream   StreamMode

	// Stream-floating feature toggles (only meaningful with StreamSF).
	FloatIndirect   bool // float indirect streams (SF-Ind and full SF)
	FloatConfluence bool // merge identical streams into multicast groups

	// BulkPrefetch groups up to 4 consecutive same-bank L2 prefetch
	// requests into a single NoC message (the micro-architecture-only
	// coarse-grain-request baseline of §VI).
	BulkPrefetch bool

	// StreamGrainCoherence enables the §V-B alternate design: SE_L3 tracks
	// each floated stream's accessed address range with base/bound
	// registers, and a remote write hitting a tracked range invalidates
	// the stream (it sinks and re-executes at the core). This restores
	// traditional consistency speculation for stream data at the cost of
	// range-check false positives and extra deallocation messages.
	StreamGrainCoherence bool

	// NoC.
	LinkBits      int // link width: 128, 256 or 512
	RouterLatency int // per-hop router pipeline stages
	LinkLatency   int // per-hop link traversal cycles

	// Caches.
	L1 CacheParams
	L2 CacheParams
	L3 CacheParams // per bank

	// L3InterleaveBytes is the static-NUCA interleaving granularity.
	L3InterleaveBytes int

	// DRAM.
	DRAMLatency      int     // controller+device latency in cycles
	DRAMBandwidthBpc float64 // total bytes/cycle across all controllers

	// Stream engines.
	MaxStreamsPerCore int // SEcore / SE_L2 streams (12 in the paper)
	SEL2BufferBytes   int // SE_L2 stream data buffer (16 kB)
	// Float policy knobs (§IV-D).
	FloatMinRequests int // requests observed before history-based floating
	FloatMissRatio   float64
	SinkHitThreshold int // consecutive private-cache hits before sinking

	// ConfluenceBlock is the edge of the tile block within which streams
	// may merge (2 in the paper: 2x2 blocks).
	ConfluenceBlock int

	// Sanitize selects whether runtime invariant probes (MESI directory
	// consistency, flit conservation, credit/FIFO bounds, event-queue
	// monotonicity) are attached to the machine. The zero value is
	// sanitize.ModeAuto: probes on under "go test", off otherwise.
	Sanitize sanitize.Mode

	// Sample configures interval sampling (internal/sample): the zero value
	// runs the full detailed simulation. Sampling changes what a run
	// computes — estimates with confidence intervals instead of exact
	// counters — so its parameters are part of the canonical encoding and
	// the cache key.
	Sample SampleParams

	// Workers is the number of goroutines driving the event kernel
	// (internal/par), and with it the number of tile shards a machine is
	// built as: 0 or 1 runs one shard single-threaded, higher values
	// parallelize large meshes across tile shards. It is purely an
	// execution knob — results are bit-identical for every value — so it is
	// deliberately NOT part of the canonical encoding or the cache key.
	Workers int
}

// SampleParams selects sampled simulation: each phase's iteration space is
// partitioned into Intervals intervals, a seeded contiguous block of
// Measure of them is simulated in detail (after functional fast-forward and
// cache warmup), and the block's per-interval statistics are extrapolated
// into whole-run estimates with t-based confidence intervals. Intervals <=
// 1 disables sampling and the remaining fields are inert.
type SampleParams struct {
	// Intervals is K, the number of intervals each phase's iteration space
	// is partitioned into. <= 1 runs the full detailed simulation.
	Intervals int
	// Measure is m, the number of intervals simulated in detail
	// (0 picks min(3, Intervals); values above Intervals are clamped).
	Measure int
	// Seed rotates the measured block's start deterministically through the
	// valid positions; 0 centers the block in the run.
	Seed int64
	// Warmup is the detailed warmup window, in iterations simulated (but
	// not measured) before the measured block to establish pipeline, queue
	// and cross-core desynchronization state (0 picks one and a half
	// intervals). The phase's entire skipped prefix is additionally
	// replayed functionally before the window to warm cache tags.
	Warmup int64
}

// Enabled reports whether the parameters select sampled simulation.
func (p SampleParams) Enabled() bool { return p.Intervals > 1 }

// Resolved normalizes the parameters to the values the sampler actually
// uses: disabled sampling collapses to the zero value (a disabled Seed runs
// the same simulation as no sampling at all) and Measure defaults are
// applied. CanonicalBytes encodes the resolved form so that parameter
// spellings that run identical simulations share one cache key.
func (p SampleParams) Resolved() SampleParams {
	if !p.Enabled() {
		return SampleParams{}
	}
	if p.Measure <= 0 {
		p.Measure = 3
	}
	if p.Measure > p.Intervals {
		p.Measure = p.Intervals
	}
	if p.Warmup < 0 {
		p.Warmup = 0
	}
	return p
}

// Validate checks the sampling parameters.
func (p SampleParams) Validate() error {
	if p.Intervals < 0 {
		return errors.New("config: Sample.Intervals must be non-negative")
	}
	if p.Measure < 0 {
		return errors.New("config: Sample.Measure must be non-negative")
	}
	return nil
}

// SanitizeEnabled resolves the Sanitize mode for this run.
func (c Config) SanitizeEnabled() bool { return c.Sanitize.Enabled() }

// Default returns the Table III configuration: 8x8 OOO8 tiles, 256-bit links,
// no prefetching, streams off (the Base system). Callers toggle Prefetch /
// Stream / Core to produce the five compared systems.
func Default() Config {
	return Config{
		MeshWidth:  8,
		MeshHeight: 8,
		Core:       OOO8,
		Prefetch:   PrefetchNone,
		Stream:     StreamOff,

		LinkBits:      256,
		RouterLatency: 5,
		LinkLatency:   1,

		// Private caches insert at "long" re-reference (SRRIP behaviour,
		// probability 1); the shared L3 uses Bimodal RRIP with p = 0.03 as
		// in Table III.
		L1: CacheParams{SizeBytes: 32 << 10, Ways: 8, LatCycles: 2, LineBytes: 64, BRRIPProb: 1.0, MSHREntries: 16},
		L2: CacheParams{SizeBytes: 256 << 10, Ways: 16, LatCycles: 16, LineBytes: 64, BRRIPProb: 1.0, MSHREntries: 32},
		L3: CacheParams{SizeBytes: 1 << 20, Ways: 16, LatCycles: 20, LineBytes: 64, BRRIPProb: 0.03, MSHREntries: 64},

		L3InterleaveBytes: 64,

		// DDR3-1600 at 12.8 GB/s per controller, four controllers at the
		// mesh corners: 51.2 GB/s aggregate = 25.6 bytes per 2 GHz core
		// cycle; ~60 ns of device latency is 120 cycles.
		DRAMLatency:      120,
		DRAMBandwidthBpc: 25.6,

		MaxStreamsPerCore: 12,
		SEL2BufferBytes:   16 << 10,
		FloatMinRequests:  64,
		FloatMissRatio:    0.5,
		SinkHitThreshold:  8,
		ConfluenceBlock:   2,
	}
}

// ForSystem returns Default() adjusted to one of the named comparison
// systems from §VI: "Base", "Stride", "Bingo", "SS", "SF", "SF-Aff",
// "SF-Ind". SF systems use 1 kB L3 interleaving per the paper.
func ForSystem(name string, core CoreKind) (Config, error) {
	c := Default()
	c.Core = core
	switch name {
	case "Base":
	case "Stride":
		c.Prefetch = PrefetchStride
	case "Bingo":
		c.Prefetch = PrefetchBingo
	case "SS":
		c.Stream = StreamSS
	case "SF":
		c.Stream = StreamSF
		c.FloatIndirect = true
		c.FloatConfluence = true
		c.L3InterleaveBytes = 1024
	case "SF-Aff":
		c.Stream = StreamSF
		c.L3InterleaveBytes = 1024
	case "SF-Ind":
		c.Stream = StreamSF
		c.FloatIndirect = true
		c.L3InterleaveBytes = 1024
	default:
		return Config{}, fmt.Errorf("config: unknown system %q", name)
	}
	return c, nil
}

// SystemNames lists the comparison systems accepted by ForSystem, in the
// order the paper's figures present them.
func SystemNames() []string {
	return []string{"Base", "Stride", "Bingo", "SS", "SF-Aff", "SF-Ind", "SF"}
}

// Tiles returns the number of mesh tiles (= cores = L3 banks).
func (c Config) Tiles() int { return c.MeshWidth * c.MeshHeight }

// CoreParams returns the pipeline parameters for the configured core kind.
func (c Config) CoreParams() CoreParams { return ParamsFor(c.Core) }

// HomeBank maps a physical line address to its L3 bank under static NUCA.
func (c Config) HomeBank(addr uint64) int {
	return int((addr / uint64(c.L3InterleaveBytes)) % uint64(c.Tiles()))
}

// MemControllerTiles returns the tiles hosting memory controllers: the four
// mesh corners, as in Table III.
func (c Config) MemControllerTiles() []int {
	w, h := c.MeshWidth, c.MeshHeight
	corners := []int{0, w - 1, w * (h - 1), w*h - 1}
	// Deduplicate for degenerate meshes (1xN, Nx1, 1x1).
	seen := map[int]bool{}
	var out []int
	for _, t := range corners {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

var (
	errMesh  = errors.New("config: mesh dimensions must be positive")
	errLink  = errors.New("config: link width must be one of 128, 256, 512")
	errCache = errors.New("config: cache geometry must divide evenly into sets")
)

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c Config) Validate() error {
	if c.MeshWidth <= 0 || c.MeshHeight <= 0 {
		return errMesh
	}
	switch c.LinkBits {
	case 128, 256, 512:
	default:
		return errLink
	}
	for _, cp := range []CacheParams{c.L1, c.L2, c.L3} {
		if cp.LineBytes <= 0 || cp.Ways <= 0 || cp.SizeBytes <= 0 {
			return errCache
		}
		if cp.SizeBytes%(cp.Ways*cp.LineBytes) != 0 {
			return errCache
		}
		if cp.BRRIPProb < 0 || cp.BRRIPProb > 1 {
			return fmt.Errorf("config: BRRIP probability %v out of [0,1]", cp.BRRIPProb)
		}
	}
	if c.L3InterleaveBytes < c.L3.LineBytes {
		return fmt.Errorf("config: L3 interleave %dB smaller than line size %dB",
			c.L3InterleaveBytes, c.L3.LineBytes)
	}
	if c.L3InterleaveBytes%c.L3.LineBytes != 0 {
		return fmt.Errorf("config: L3 interleave %dB not a multiple of line size", c.L3InterleaveBytes)
	}
	if c.Stream == StreamOff && (c.FloatIndirect || c.FloatConfluence) {
		return errors.New("config: floating toggles require StreamSF")
	}
	if c.StreamGrainCoherence && c.Stream != StreamSF {
		return errors.New("config: stream-grain coherence requires StreamSF")
	}
	if c.MaxStreamsPerCore <= 0 {
		return errors.New("config: MaxStreamsPerCore must be positive")
	}
	if c.SEL2BufferBytes <= 0 {
		return errors.New("config: SEL2BufferBytes must be positive")
	}
	if c.DRAMBandwidthBpc <= 0 || c.DRAMLatency <= 0 {
		return errors.New("config: DRAM parameters must be positive")
	}
	if c.ConfluenceBlock <= 0 {
		return errors.New("config: ConfluenceBlock must be positive")
	}
	if c.Workers < 0 {
		return errors.New("config: Workers must be non-negative")
	}
	if !c.Sanitize.Valid() {
		return fmt.Errorf("config: Sanitize mode %d out of range", int(c.Sanitize))
	}
	if err := c.Sample.Validate(); err != nil {
		return err
	}
	return nil
}

// Label is a short human-readable description ("SF/OOO8/8x8").
func (c Config) Label() string {
	sys := "Base"
	switch {
	case c.Stream == StreamSF:
		sys = "SF"
	case c.Stream == StreamSS:
		sys = "SS"
	case c.Prefetch == PrefetchStride:
		sys = "Stride"
	case c.Prefetch == PrefetchBingo:
		sys = "Bingo"
	}
	return fmt.Sprintf("%s/%s/%dx%d", sys, c.Core, c.MeshWidth, c.MeshHeight)
}
