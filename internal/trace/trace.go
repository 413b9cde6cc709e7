// Package trace is the simulator's structured tracing subsystem: per-tile
// preallocated ring buffers of compact events covering every layer (core
// issue/stall/retire, cache hits/misses/evictions, per-link NoC flits,
// stream lifecycles, barriers), plus per-load latency attribution across
// core-wait/L1/L2/NoC/L3/DRAM. It is the decentralized-visibility
// counterpart of internal/sanitize: where the sanitizer proves invariants,
// the tracer explains where cycles and flits went.
//
// A nil *Tracer disables everything: components guard each probe with a
// single pointer compare, so disabled-mode runs are indistinguishable from
// the untraced simulator (golden figures and determinism tests see the
// exact same event schedule either way). With tracing on, the hot path is
// allocation-free: events are written in place into fixed rings and load
// probes come from a freelist.
//
// The package deliberately imports nothing from the rest of the simulator
// so that cpu, cache, noc, core and system can all depend on it.
package trace

import (
	"cmp"
	"slices"
)

// Comp identifies the simulated component that emitted an event.
type Comp uint8

// Components, in process-id order for the Chrome exporter.
const (
	CompCPU Comp = iota
	CompCache
	CompNoC
	CompStream
	CompSystem

	// NumComps is the number of components.
	NumComps
)

func (c Comp) String() string {
	switch c {
	case CompCPU:
		return "cpu"
	case CompCache:
		return "cache"
	case CompNoC:
		return "noc"
	case CompStream:
		return "stream"
	case CompSystem:
		return "system"
	}
	return "comp?"
}

// Kind is the event type. The A/B payload meaning is per kind (documented
// on each constant); Key carries an address, link index or stream key.
type Kind uint8

// Event kinds.
const (
	KindNone Kind = iota

	// Core events.
	KindPhaseBegin // A=phase index, B=iterations
	KindPhaseEnd   // A=phase index, B=iterations retired
	KindIterIssue  // Key=iteration index
	KindIterRetire // Key=iteration index
	KindStallLQ    // load-queue full at issue; A=queued loads behind it
	KindLoadDone   // a probed load finished; A=total latency, B=service level

	// Cache events: demand misses and evictions only (hits are not
	// traced, so misses and evictions don't get rotated out).
	KindL1Miss  // Key=line address
	KindL2Miss  // Key=line address
	KindL2Evict // Key=line address, A=dirty, B=reused
	KindL3Miss  // Key=line address (tile = bank)
	KindL3Evict // Key=line address, A=dirty (tile = bank)
	KindFill    // private-cache fill; Key=line address, A=granted state

	// NoC events.
	KindNocSend    // Key=src<<16|dst, A=flits, B=message class
	KindNocHop     // Key=link index (tile*NumLinkDirs+dir), A=flits, B=busy-until cycle
	KindNocDeliver // Key=src<<16|dst, A=flits, B=src tile

	// Stream lifecycle events (Key=StreamKey).
	KindStreamConfig  // A=start element, B=config payload bytes
	KindStreamFloat   // A=start element, B=indirect children
	KindStreamMigrate // A=from bank, B=to bank
	KindStreamSink    // A=last requested element, B=1 if aliased
	KindStreamEnd     // A/B unused
	KindSEL2Arrive    // floated line landed in the SE_L2 buffer; A=line seq
	KindSEL3Issue     // SE_L3 issued a line; A=line seq, B=merged members

	// System events.
	KindBarrier // phase barrier crossed; A=completed phase index

	// NumKinds is the number of event kinds.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case KindPhaseBegin:
		return "phase-begin"
	case KindPhaseEnd:
		return "phase-end"
	case KindIterIssue:
		return "iter-issue"
	case KindIterRetire:
		return "iter-retire"
	case KindStallLQ:
		return "stall-lq"
	case KindLoadDone:
		return "load-done"
	case KindL1Miss:
		return "l1-miss"
	case KindL2Miss:
		return "l2-miss"
	case KindL2Evict:
		return "l2-evict"
	case KindL3Miss:
		return "l3-miss"
	case KindL3Evict:
		return "l3-evict"
	case KindFill:
		return "fill"
	case KindNocSend:
		return "noc-send"
	case KindNocHop:
		return "noc-hop"
	case KindNocDeliver:
		return "noc-deliver"
	case KindStreamConfig:
		return "stream-config"
	case KindStreamFloat:
		return "stream-float"
	case KindStreamMigrate:
		return "stream-migrate"
	case KindStreamSink:
		return "stream-sink"
	case KindStreamEnd:
		return "stream-end"
	case KindSEL2Arrive:
		return "sel2-arrive"
	case KindSEL3Issue:
		return "sel3-issue"
	case KindBarrier:
		return "barrier"
	}
	return "event?"
}

// compOf maps an event kind to the component track it renders under.
func compOf(k Kind) Comp {
	switch {
	case k >= KindPhaseBegin && k <= KindLoadDone:
		return CompCPU
	case k >= KindL1Miss && k <= KindFill:
		return CompCache
	case k >= KindNocSend && k <= KindNocDeliver:
		return CompNoC
	case k >= KindStreamConfig && k <= KindSEL3Issue:
		return CompStream
	}
	return CompSystem
}

// Event is one compact trace record: 40 bytes, no pointers, no strings.
type Event struct {
	Cycle uint64
	Key   uint64
	A, B  int64
	Tile  int32
	Kind  Kind
}

// Comp returns the component track the event belongs to.
func (e Event) Comp() Comp { return compOf(e.Kind) }

// Mesh link directions leaving a router, in link-array order. These must
// match internal/noc's private direction enum (link index = tile*NumLinkDirs
// + dir), which is asserted by a test there.
const (
	DirEast = iota
	DirWest
	DirNorth
	DirSouth

	// NumLinkDirs is the number of outgoing links per router.
	NumLinkDirs
)

// DefaultRingDepth is the per-tile event-ring depth when Config.RingDepth
// is zero: deep enough to keep the interesting tail of each tile's activity
// while bounding a 64-tile export to ~128k events.
const DefaultRingDepth = 2048

// maxSpans bounds the stream-lifecycle span list so pathological runs
// cannot grow the export without bound.
const maxSpans = 1 << 16

// Config sizes and labels a Tracer.
type Config struct {
	Tiles        int
	MeshW, MeshH int
	// RingDepth is the per-tile event-ring capacity (DefaultRingDepth if 0).
	RingDepth int
	// L3LatCycles is the bank lookup latency, used to split the post-bank
	// remainder of a load between the L3 and NoC buckets.
	L3LatCycles int
	// Benchmark and Label describe the run in exports.
	Benchmark string
	Label     string
}

// ring is one tile's fixed-capacity event buffer: writes never allocate,
// old events rotate out once the ring is full.
type ring struct {
	ev   []Event
	next int
	n    uint64 // total events ever written
}

func (r *ring) add(e Event) {
	r.ev[r.next] = e
	r.next++
	if r.next == len(r.ev) {
		r.next = 0
	}
	r.n++
}

// drain appends the ring's surviving events, oldest first.
func (r *ring) drain(out []Event) []Event {
	if r.n <= uint64(len(r.ev)) {
		return append(out, r.ev[:r.n]...)
	}
	out = append(out, r.ev[r.next:]...)
	return append(out, r.ev[:r.next]...)
}

// Bucket is one component of a load's latency attribution.
type Bucket int

// Attribution buckets, in presentation order.
const (
	BucketCoreWait Bucket = iota // load-queue wait before issue
	BucketL1                     // L1 lookup
	BucketL2                     // L2 lookup + shared-miss wait
	BucketNoC                    // request/response mesh traversal
	BucketL3                     // bank lookup
	BucketDRAM                   // memory access (incl. controller hops)

	// NumBuckets is the number of attribution buckets.
	NumBuckets
)

func (b Bucket) String() string {
	switch b {
	case BucketCoreWait:
		return "core-wait"
	case BucketL1:
		return "l1"
	case BucketL2:
		return "l2"
	case BucketNoC:
		return "noc"
	case BucketL3:
		return "l3"
	case BucketDRAM:
		return "dram"
	}
	return "bucket?"
}

// Service levels a probed load can complete at.
const (
	LevelMerged = iota // merged into another in-flight miss at the L2 MSHR
	LevelL1
	LevelL2
	LevelL3
	LevelDRAM

	// NumLevels is the number of service levels.
	NumLevels
)

// LevelName names a service level for exports.
func LevelName(lv int) string {
	switch lv {
	case LevelMerged:
		return "merged"
	case LevelL1:
		return "l1"
	case LevelL2:
		return "l2"
	case LevelL3:
		return "l3"
	case LevelDRAM:
		return "dram"
	}
	return "level?"
}

// LoadProbe rides one demand/stream load through the hierarchy (via
// cache.Meta) collecting timestamps at each layer boundary. Zero fields
// mean "never reached"; Level records where the load was served. Probes are
// pooled by the Tracer — components must not retain one past FinishLoad.
type LoadProbe struct {
	Enq       uint64 // load entered the core's load queue
	Issue     uint64 // load issued into the hierarchy
	L1Done    uint64 // L1 lookup completed
	L2Done    uint64 // L2 lookup completed
	ReqAtBank uint64 // request message reached the home L3 bank
	DRAMStart uint64 // bank missed; fill from memory began
	DRAMEnd   uint64 // fill data back at the bank
	Level     uint8  // service level (LevelMerged..LevelDRAM)
}

// TileAttribution accumulates latency attribution for one tile's loads.
type TileAttribution struct {
	Loads       uint64
	TotalCycles uint64
	Cycles      [NumBuckets]uint64
	ByLevel     [NumLevels]uint64
}

// add merges o into a.
func (a *TileAttribution) add(o TileAttribution) {
	a.Loads += o.Loads
	a.TotalCycles += o.TotalCycles
	for i := range a.Cycles {
		a.Cycles[i] += o.Cycles[i]
	}
	for i := range a.ByLevel {
		a.ByLevel[i] += o.ByLevel[i]
	}
}

// StreamSpan is one floated-stream lifecycle: Float (span open) through
// Sink/End/run-end (span close), annotated with the Table I config payload
// the SE_L2 actually put on the wire.
type StreamSpan struct {
	Tile       int    `json:"tile"`
	SID        int    `json:"sid"`
	Start      uint64 `json:"start"`
	End        uint64 `json:"end"`
	StartElem  int64  `json:"startElem"`
	Base       uint64 `json:"base"`
	Bank       int    `json:"bank"`
	Children   int    `json:"children"`
	Migrations int    `json:"migrations"`
	// EndKind is "end" (stream_end), "sink", "sink-alias" or "run-end"
	// (still floated when the simulation finished); "open" while live.
	EndKind string `json:"endKind"`
	// CfgHex is the hex-encoded Table I configuration packet.
	CfgHex string `json:"cfg,omitempty"`
}

// StreamKey tags a (tile, sid) stream in event records, matching the
// sanitizer's key convention (high bit set keeps stream keys disjoint from
// line addresses and NoC keys).
func StreamKey(tile, sid int) uint64 {
	return 1<<63 | uint64(tile)<<16 | uint64(sid)
}

// Tracer collects one machine's trace. All methods must be called from the
// machine's event-loop goroutine (one tracer per machine; parallel sweeps
// each own theirs). A nil *Tracer is the disabled state — components guard
// every probe with a nil check rather than calling methods on it.
type Tracer struct {
	cfg   Config
	rings []ring

	linkFlits []uint64 // tile*NumLinkDirs+dir -> flits carried
	attr      []TileAttribution

	spans        []StreamSpan
	spansDropped uint64
	open         map[uint64]int // StreamKey -> index of the open span

	pool []*LoadProbe

	cycles   uint64
	finished bool
}

// New builds a Tracer for a machine with the given shape. Ring storage is
// allocated up front; nothing allocates after this call on the hot paths.
func New(cfg Config) *Tracer {
	if cfg.Tiles <= 0 {
		cfg.Tiles = 1
	}
	if cfg.RingDepth <= 0 {
		cfg.RingDepth = DefaultRingDepth
	}
	t := &Tracer{
		cfg:       cfg,
		rings:     make([]ring, cfg.Tiles),
		linkFlits: make([]uint64, cfg.Tiles*NumLinkDirs),
		attr:      make([]TileAttribution, cfg.Tiles),
		open:      make(map[uint64]int),
	}
	backing := make([]Event, cfg.Tiles*cfg.RingDepth)
	for i := range t.rings {
		t.rings[i].ev = backing[i*cfg.RingDepth : (i+1)*cfg.RingDepth]
	}
	return t
}

// Info returns the tracer's configuration.
func (t *Tracer) Info() Config { return t.cfg }

// Cycles returns the final simulated cycle recorded by FinishRun.
func (t *Tracer) Cycles() uint64 { return t.cycles }

// Emit records one event into the emitting tile's ring. Allocation-free.
func (t *Tracer) Emit(cycle uint64, tile int, kind Kind, key uint64, a, b int64) {
	if tile < 0 || tile >= len(t.rings) {
		tile = 0
	}
	t.rings[tile].add(Event{Cycle: cycle, Key: key, A: a, B: b, Tile: int32(tile), Kind: kind})
}

// AddLinkFlits accounts flits carried by one directed mesh link
// (link = tile*NumLinkDirs + dir). Allocation-free.
func (t *Tracer) AddLinkFlits(link, flits int) {
	if link >= 0 && link < len(t.linkFlits) {
		t.linkFlits[link] += uint64(flits)
	}
}

// Probe checks a zeroed LoadProbe out of the freelist.
func (t *Tracer) Probe() *LoadProbe {
	if n := len(t.pool); n > 0 {
		p := t.pool[n-1]
		t.pool = t.pool[:n-1]
		*p = LoadProbe{}
		return p
	}
	return &LoadProbe{}
}

// FinishLoad attributes a completed load's latency and returns the probe to
// the freelist. The walk is a monotone cursor from Enq to done: each mark
// charges the span since the previous boundary to one bucket.
//
// Attribution rules: core-wait is load-queue time before issue; an L2-MSHR
// merge (Level==LevelMerged, the load piggybacked on another tile-local
// in-flight miss) charges its whole post-L2 wait to the NoC bucket — the
// leader's network+memory time, not separable per waiter; a bank miss
// charges bank-lookup cycles to L3, the fill (including the memory
// controller hops) to DRAM, and the response traversal to NoC.
func (t *Tracer) FinishLoad(tile int, p *LoadProbe, done uint64) {
	if p == nil {
		return
	}
	if tile < 0 || tile >= len(t.attr) {
		tile = 0
	}
	a := &t.attr[tile]
	a.Loads++
	a.TotalCycles += done - p.Enq
	if int(p.Level) < len(a.ByLevel) {
		a.ByLevel[p.Level]++
	}
	cur := p.Enq
	mark := func(b Bucket, until uint64) {
		if until > cur {
			a.Cycles[b] += until - cur
			cur = until
		}
	}
	mark(BucketCoreWait, p.Issue)
	if p.L1Done < done {
		mark(BucketL1, p.L1Done)
	} else {
		mark(BucketL1, done)
	}
	switch {
	case p.Level == LevelL1:
		mark(BucketL1, done)
	case p.ReqAtBank > 0:
		mark(BucketL2, p.L2Done)
		mark(BucketNoC, p.ReqAtBank)
		if p.DRAMStart > 0 {
			mark(BucketL3, p.DRAMStart)
			mark(BucketDRAM, p.DRAMEnd)
		} else {
			mark(BucketL3, p.ReqAtBank+uint64(t.cfg.L3LatCycles))
		}
		mark(BucketNoC, done)
	case p.Level == LevelL2:
		mark(BucketL2, done)
	default: // merged into a tile-local in-flight miss
		mark(BucketL2, p.L2Done)
		mark(BucketNoC, done)
	}
	t.Emit(done, tile, KindLoadDone, 0, int64(done-p.Enq), int64(p.Level))
	t.pool = append(t.pool, p)
}

// Stream records one lifecycle edge of stream (tile, sid) at cycle: the
// edge's event (kind is KindStreamConfig..KindStreamEnd) and what the edge
// does to the stream's span.
//   - Float opens the span: a is the start element, b the indirect children,
//     where the stream's base address.
//   - Config attaches the Table I packet cfg and the bank it goes to
//     (where); the event carries a and len(cfg).
//   - Migrate moves the span from bank a to bank b.
//   - Sink closes it (b is 1 if an aliasing store caused it).
//   - End closes it, and is a no-op for a stream that never floated; its
//     event carries no payload.
func (t *Tracer) Stream(kind Kind, cycle uint64, tile, sid int, a, b int64, where uint64, cfg []byte) {
	key := StreamKey(tile, sid)
	i, open := t.open[key]
	switch kind {
	case KindStreamConfig:
		b = int64(len(cfg))
	case KindStreamEnd:
		if !open {
			return
		}
		a, b = 0, 0
	}
	t.Emit(cycle, tile, kind, key, a, b)
	switch kind {
	case KindStreamFloat:
		if len(t.spans) >= maxSpans {
			t.spansDropped++
			return
		}
		t.spans = append(t.spans, StreamSpan{
			Tile: tile, SID: sid, Start: cycle, StartElem: a,
			Base: where, Bank: -1, Children: int(b), EndKind: "open",
		})
		t.open[key] = len(t.spans) - 1
	case KindStreamConfig:
		if open {
			t.spans[i].Bank = int(where)
			t.spans[i].CfgHex = hexEncode(cfg)
		}
	case KindStreamMigrate:
		if open {
			t.spans[i].Migrations++
			t.spans[i].Bank = int(b)
		}
	case KindStreamSink:
		end := "sink"
		if b != 0 {
			end = "sink-alias"
		}
		t.closeSpan(key, cycle, end)
	case KindStreamEnd:
		t.closeSpan(key, cycle, "end")
	}
}

func (t *Tracer) closeSpan(key uint64, cycle uint64, kind string) {
	if i, ok := t.open[key]; ok {
		t.spans[i].End = cycle
		t.spans[i].EndKind = kind
		delete(t.open, key)
	}
}

// FinishRun stamps the final cycle and closes any still-open spans.
func (t *Tracer) FinishRun(cycles uint64) {
	t.cycles = cycles
	for key := range t.open {
		t.closeSpan(key, cycles, "run-end")
	}
	t.finished = true
}

// Events merges every tile's surviving ring contents into one slice,
// ordered by (cycle, tile, emission order). Rings only keep the newest
// RingDepth events per tile; Dropped reports how many rotated out.
func (t *Tracer) Events() []Event {
	var total int
	for i := range t.rings {
		n := t.rings[i].n
		if n > uint64(len(t.rings[i].ev)) {
			n = uint64(len(t.rings[i].ev))
		}
		total += int(n)
	}
	out := make([]Event, 0, total)
	for i := range t.rings {
		out = t.rings[i].drain(out)
	}
	// Rings drain oldest-first, so a stable sort keeps each tile's emission
	// order within a cycle.
	slices.SortStableFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Tile, b.Tile))
	})
	return out
}

// Dropped reports how many events rotated out of full rings.
func (t *Tracer) Dropped() uint64 {
	var d uint64
	for i := range t.rings {
		if t.rings[i].n > uint64(len(t.rings[i].ev)) {
			d += t.rings[i].n - uint64(len(t.rings[i].ev))
		}
	}
	return d + t.spansDropped
}

// Spans returns the recorded stream lifecycle spans (shared slice; callers
// must not mutate).
func (t *Tracer) Spans() []StreamSpan { return t.spans }

// LinkFlits returns the per-link flit counters, indexed
// tile*NumLinkDirs+dir (shared slice; callers must not mutate).
func (t *Tracer) LinkFlits() []uint64 { return t.linkFlits }

// TileAttributions returns the per-tile latency attribution (shared slice).
func (t *Tracer) TileAttributions() []TileAttribution { return t.attr }

// Attribution sums latency attribution over all tiles.
func (t *Tracer) Attribution() TileAttribution {
	var sum TileAttribution
	for i := range t.attr {
		sum.add(t.attr[i])
	}
	return sum
}

const hexDigits = "0123456789abcdef"

func hexEncode(b []byte) string {
	out := make([]byte, 2*len(b))
	for i, v := range b {
		out[2*i] = hexDigits[v>>4]
		out[2*i+1] = hexDigits[v&0xF]
	}
	return string(out)
}
