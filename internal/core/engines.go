package core

import (
	"cmp"
	"slices"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/mem"
	"streamfloat/internal/noc"
	"streamfloat/internal/par"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/trace"
	"streamfloat/internal/workload"
)

// sortedKeys returns a map's keys in ascending order. Map iteration order
// is randomized, and several engine paths fire event-scheduling callbacks
// while draining maps — a fixed order keeps simulations deterministic.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// streamKey uniquely identifies one configured (floated) stream instance.
// gen disambiguates reconfigurations of the same (tile, sid) across phases.
type streamKey struct {
	tile int
	sid  int
	gen  uint64
}

// Engines owns every stream engine in the machine: one SEcore and one SE_L2
// per tile, one SE_L3 per L3 bank, plus the registry that routes credit and
// end messages to wherever a floated stream currently resides. It implements
// cpu.StreamSource.
type Engines struct {
	cfg  config.Config
	mesh *noc.Mesh
	sys  *cache.System
	bk   *mem.Backing

	cores []*seCore
	l2s   []*seL2
	l3s   []*seL3

	// registry locates the SE_L3 currently running each floated stream. It
	// is only touched at quantum barriers: configuration, credit and end
	// deliveries defer their registry work, and streams defer their own
	// unregistration, so the map never sees concurrent access from two bank
	// shards.
	registry map[streamKey]*l3Stream

	// lay is the machine's shard layout: it routes engine scheduling and
	// stats to each tile's shard and carries cross-tile effects (registry
	// routing, stream sinking from remote writes) to the quantum barrier.
	lay *par.Layout

	// san, when non-nil, attaches the sanitizer probes (see sanitize.go).
	san *sanitize.Checker

	// tr, when non-nil, records stream lifecycle spans and SE activity
	// events (see trace.go). Purely observational.
	tr *trace.Tracer
}

// NewEngines builds the stream engines for the configured machine and wires
// the cache observers the float policy needs.
func NewEngines(lay *par.Layout, cfg config.Config, mesh *noc.Mesh,
	sys *cache.System, bk *mem.Backing) *Engines {
	e := &Engines{
		lay: lay, cfg: cfg, mesh: mesh, sys: sys, bk: bk,
		registry: make(map[streamKey]*l3Stream),
	}
	n := cfg.Tiles()
	e.cores = make([]*seCore, n)
	e.l2s = make([]*seL2, n)
	e.l3s = make([]*seL3, n)
	for i := 0; i < n; i++ {
		e.cores[i] = newSECore(e, i)
		e.l2s[i] = newSEL2(e, i)
		e.l3s[i] = newSEL3(e, i)
	}
	sys.SetStreamReuseObserver(func(tile, sid int) { e.cores[tile].noteReuse(sid) })
	sys.SetL2DirtyEvictObserver(func(tile int, lineAddr uint64) { e.l2s[tile].noteDirtyEvict(lineAddr) })
	if cfg.StreamGrainCoherence {
		sys.SetBankWriteObserver(e.checkStreamGrain)
	}
	return e
}

// grainOp carries one §V-B range check to the quantum barrier.
type grainOp struct {
	e      *Engines
	bank   int
	la     uint64
	writer int
}

func runGrainCheck(_ event.Cycle, arg any) {
	op := arg.(*grainOp)
	op.e.streamGrainCheck(op.bank, op.la, op.writer)
}

// checkStreamGrain is the bank-write observer: it sweeps the stream
// registry for ranges covering the written line. The sweep reads remote
// stream and core state, so it runs at the barrier.
func (e *Engines) checkStreamGrain(bank int, lineAddr uint64, writerTile int) {
	e.lay.Defer(bank, runGrainCheck, &grainOp{e: e, bank: bank, la: lineAddr, writer: writerTile})
}

// streamGrainCheck implements the §V-B range check: a write that lands
// inside a floated stream's accessed range (from another core) invalidates
// the stream, which sinks and re-executes at its core. False positives from
// the conservative base/bound ranges are possible and safe — they only cost
// a sink. (The directory consults the stream registry directly; in hardware
// each visited SE_L3 keeps the range registers until deallocation.)
func (e *Engines) streamGrainCheck(bank int, lineAddr uint64, writerTile int) {
	var hit []*l3Stream
	for _, s := range e.registry {
		if s.dead || s.reqTile == writerTile || s.group.dead {
			continue
		}
		if lineAddr >= s.rangeLo && lineAddr < s.rangeHi && s.rangeHi != 0 {
			hit = append(hit, s)
		}
	}
	// Sink in a fixed order: the registry is a map, and sinking schedules
	// re-execution events.
	slices.SortFunc(hit, func(a, b *l3Stream) int {
		if c := cmp.Compare(a.key.tile, b.key.tile); c != 0 {
			return c
		}
		if c := cmp.Compare(a.key.sid, b.key.sid); c != 0 {
			return c
		}
		return cmp.Compare(a.key.gen, b.key.gen)
	})
	for _, s := range hit {
		e.lay.St(bank).StreamInvalidations++
		e.cores[s.reqTile].sinkStream(s.group.owner, true)
	}
}

// floating reports whether the machine allows streams to float (SF mode).
func (e *Engines) floating() bool { return e.cfg.Stream == config.StreamSF }

// ConfigurePhase implements cpu.StreamSource.
func (e *Engines) ConfigurePhase(coreID int, phase *workload.Phase, ready func()) {
	e.cores[coreID].configurePhase(phase, ready)
}

// RequestElement implements cpu.StreamSource.
func (e *Engines) RequestElement(coreID int, sid int, idx int64, cb func(event.Cycle)) {
	e.cores[coreID].requestElement(sid, idx, cb)
}

// ReleaseElement implements cpu.StreamSource.
func (e *Engines) ReleaseElement(coreID int, sid int, idx int64) {
	e.cores[coreID].releaseElement(sid, idx)
}

// EndPhase implements cpu.StreamSource.
func (e *Engines) EndPhase(coreID int) {
	e.cores[coreID].endPhase()
}

// blockOf returns the confluence block coordinate of a tile (§IV-C divides
// the mesh into ConfluenceBlock x ConfluenceBlock tile blocks).
func (e *Engines) blockOf(tile int) (int, int) {
	x, y := e.mesh.Coord(tile)
	return x / e.cfg.ConfluenceBlock, y / e.cfg.ConfluenceBlock
}

// register records where a floated stream lives; SE_L2 credit/end messages
// are delivered through this registry so migrations never strand them.
func (e *Engines) register(s *l3Stream) { e.registry[s.key] = s }

// unregister removes a completed or terminated stream.
func (e *Engines) unregister(key streamKey) { delete(e.registry, key) }

// lookup finds a floated stream, or nil if it has completed.
func (e *Engines) lookup(key streamKey) *l3Stream { return e.registry[key] }

// The delivery callbacks below land at a bank inside its shard's window but
// need the registry (or remote group state); each defers the real work to
// the quantum barrier.

// cfgOp carries a configuration-packet delivery to the barrier.
type cfgOp struct {
	b         *seL3
	g         *l2Group
	startElem int64
	startSeq  int64
	credits   int
}

func runAddStream(_ event.Cycle, arg any) {
	op := arg.(*cfgOp)
	op.b.addStream(op.g, op.startElem, op.startSeq, op.credits)
}

// creditOp carries a credit-message delivery to the barrier.
type creditOp struct {
	e     *Engines
	key   streamKey
	level int
}

func runAddCredits(_ event.Cycle, arg any) {
	op := arg.(*creditOp)
	if s := op.e.lookup(op.key); s != nil {
		s.addCredits(op.level)
	}
}

// termOp carries an end-message delivery to the barrier.
type termOp struct {
	e   *Engines
	key streamKey
}

func runTerminate(_ event.Cycle, arg any) {
	op := arg.(*termOp)
	if s := op.e.lookup(op.key); s != nil {
		s.terminate()
	}
}

func runUnregister(_ event.Cycle, arg any) {
	s := arg.(*l3Stream)
	s.eng.unregister(s.key)
}
