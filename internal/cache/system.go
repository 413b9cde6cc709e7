package cache

import (
	"math/bits"

	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/linetab"
	"streamfloat/internal/mem"
	"streamfloat/internal/noc"
	"streamfloat/internal/par"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// Kind is the type of a memory access entering the hierarchy.
type Kind int

const (
	// Read is a demand load from the core.
	Read Kind = iota
	// Write is a demand store from the core (write-allocate, RFO).
	Write
	// PrefL1 is a prefetch that fills L1 and L2.
	PrefL1
	// PrefL2 is a prefetch that fills L2 only.
	PrefL2
	// StreamRead is an SEcore-issued (non-floated) stream fetch; it fills
	// the caches like a demand read and tags the line with its stream.
	StreamRead
)

// Meta carries provenance for an access: the synthetic PC (for prefetcher
// training), the stream that generated it, if any, and — when tracing is
// on — the latency-attribution probe riding the access through the
// hierarchy.
type Meta struct {
	PC       uint32
	StreamID int // stream id, or -1
	Probe    *trace.LoadProbe
}

// NoMeta is the Meta for plain accesses.
var NoMeta = Meta{StreamID: -1}

// tileCaches is the private cache state of one tile.
type tileCaches struct {
	l1 *array
	l2 *array
	// mshr merges L2 misses by line address. An entry is the last waiter of a
	// circular list threaded through accessOp.next (last.next is the first),
	// so parking a waiter allocates nothing; nil marks a prefetch in flight
	// with nobody waiting. Like the model's other MSHRs it is unbounded: the
	// table grows past Table III's MSHREntries rather than stalling a miss.
	mshr linetab.Table[*accessOp]
}

// park adds op behind la's MSHR waiters, creating the entry if there is
// none, and reports whether a fetch for la was already in flight. Waiters
// wake in the order they parked.
func (tc *tileCaches) park(la uint64, op *accessOp) (busy bool) {
	p, busy := tc.mshr.Ref(la)
	if last := *p; last == nil {
		op.next = op
	} else {
		op.next, last.next = last.next, op
	}
	*p = op
	return busy
}

// The op records below carry one access through the hierarchy without
// allocating a closure per stage: each stage is a package-level handler
// scheduled with event.Ref{Obj: op}. Where a callee only takes a func value,
// the record holds one bound to itself when it is first allocated. Records
// are recycled through per-context freelists (opLists); a put resets the
// record (keeping its bound funcs and reusable slices), so a stage that
// touches a record after its put dereferences a nil System.

// accessOp is one access from System.Access to its completion at the issuing
// tile: L1 lookup -> L2 lookup -> MSHR wait. Every stage runs in op.tile's
// context.
type accessOp struct {
	s    *System
	tile int
	addr uint64
	la   uint64
	kind Kind
	meta Meta
	done func(event.Cycle)
	next *accessOp // MSHR waiter list link
}

// missOp is one GetS/GetX from the requesting tile to its home bank and
// back: fetch (tile) -> arrival and L3 lookup (bank) -> bankHit reply or
// owner forward (bank, owner) -> finishFetch (tile). It is taken where the
// request is issued and returned where the reply lands, so a record migrates
// from the bank's list to the tile's when a bulk prefetch issues it at the
// bank. With lines non-empty it is instead the bulk-prefetch request message
// itself, taken at the tile and returned at the bank.
type missOp struct {
	s       *System
	tile    int // requester
	bank    int // home bank
	la      uint64
	excl    bool
	l3kind  stats.L3ReqKind
	meta    Meta
	kind    Kind
	granted state    // set by the bank before the reply leaves
	owner   int      // forwarding owner, on the owner-forward arms
	lines   []uint64 // bulk request payload; capacity kept across puts

	afterFill func() // dramFill continuation, bound once
}

// fillOp is one DRAM fill of a line into a bank: request to the controller
// tile (bank) -> DRAM access (controller) -> data back, install, wake the
// merged waiters (bank). Taken and returned in the bank's context.
type fillOp struct {
	s        *System
	bank     int
	ctrlTile int
	la       uint64
	waiters  []func() // continuations of every request merged into this fill; capacity kept

	dramDone func(event.Cycle) // mem.DRAM.Access completion, bound once
}

// cohOp is one deferred cross-tile coherence action (remote invalidation,
// remote directory update, L3-eviction flush). Taken in the issuing tile's
// context and returned by the barrier op that applies it; barrier ops run
// single-threaded, so it goes back to the list it came from (si).
type cohOp struct {
	s    *System
	si   int
	bank int
	tile int
	la   uint64
	flag bool
	bits uint64
}

// opLists is the set of freelists one execution context owns: one per shard.
// Two rules keep them lock-free: a list is only touched by code executing in its context (get
// and put both name the tile whose event is running, not the tile the record
// was first taken for), and barrier ops run with every shard quiescent.
type opLists struct {
	access event.Freelist[accessOp]
	miss   event.Freelist[missOp]
	fill   event.Freelist[fillOp]
	coh    event.Freelist[cohOp]
	float  event.Freelist[floatOp]
}

// doublePut reports a record returned twice (a put leaves the owner nil).
func (s *System) doublePut(what string) {
	if s.chk != nil {
		s.chk.Failf(0, "cache: %s returned to its freelist twice", what)
	}
	panic("cache: " + what + " returned to its freelist twice")
}

// getOp takes an accessOp for an access issued at tile.
func (s *System) getOp(tile int) *accessOp {
	op := s.lists[s.lay.Index(tile)].access.Get()
	if op == nil {
		op = new(accessOp)
	}
	return op
}

// putOp returns an op. Always called in op.tile's execution context (the
// terminal stage of every access path runs at the issuing tile).
func (s *System) putOp(op *accessOp) {
	if op.s == nil {
		s.doublePut("accessOp")
	}
	tile := op.tile
	*op = accessOp{}
	s.lists[s.lay.Index(tile)].access.Put(op)
}

// getMiss takes a missOp in tile's context, owned by s.
func (s *System) getMiss(tile int) *missOp {
	m := s.lists[s.lay.Index(tile)].miss.Get()
	if m == nil {
		m = new(missOp)
		m.afterFill = m.filled
	}
	m.s = s
	return m
}

// putMiss returns m from code executing in tile's context.
func (s *System) putMiss(tile int, m *missOp) {
	if m.s == nil {
		s.doublePut("missOp")
	}
	*m = missOp{lines: m.lines[:0], afterFill: m.afterFill}
	s.lists[s.lay.Index(tile)].miss.Put(m)
}

// getFill takes a fillOp in bank's context.
func (s *System) getFill(bank int) *fillOp {
	f := s.lists[s.lay.Index(bank)].fill.Get()
	if f == nil {
		f = &fillOp{waiters: make([]func(), 0, 4)}
		f.dramDone = f.dataFromDRAM
	}
	f.s = s
	return f
}

// putFill returns f from code executing in bank's context.
func (s *System) putFill(bank int, f *fillOp) {
	if f.s == nil {
		s.doublePut("fillOp")
	}
	clear(f.waiters)
	*f = fillOp{waiters: f.waiters[:0], dramDone: f.dramDone}
	s.lists[s.lay.Index(bank)].fill.Put(f)
}

func (s *System) getCoh(issueTile int) *cohOp {
	si := s.lay.Index(issueTile)
	op := s.lists[si].coh.Get()
	if op == nil {
		op = new(cohOp)
	}
	op.si = si
	return op
}

func (s *System) putCoh(op *cohOp) {
	si := op.si
	*op = cohOp{}
	s.lists[si].coh.Put(op)
}

// Stage handlers for the fixed-payload scheduling form: one per pipeline
// stage, each pulling its access from the event's Ref.
func runLoadAfterL1(now event.Cycle, ref event.Ref) {
	op := ref.Obj.(*accessOp)
	op.s.loadAfterL1(op, now)
}

func runLoadAfterL2(now event.Cycle, ref event.Ref) {
	op := ref.Obj.(*accessOp)
	op.s.loadAfterL2(op, now)
}

func runStoreAfterL1(now event.Cycle, ref event.Ref) {
	op := ref.Obj.(*accessOp)
	op.s.storeAfterL1(op, now)
}

func runL2Prefetch(_ event.Cycle, ref event.Ref) {
	op := ref.Obj.(*accessOp)
	op.s.l2Prefetch(op.tile, op.la, op.meta)
	op.s.putOp(op)
}

// complete wakes the access once its fill (own or merged-into) arrives:
// probed loads finalize their latency attribution, then the core is
// notified and the op returns to the pool.
func (op *accessOp) complete(now event.Cycle) {
	if p := op.meta.Probe; p != nil && op.kind != Write {
		op.s.tr.FinishLoad(op.tile, p, uint64(now))
	}
	op.s.notifyDone(op.done, now)
	op.s.putOp(op)
}

// System is the full memory hierarchy of the simulated machine.
type System struct {
	cfg  config.Config
	mesh *noc.Mesh
	dram *mem.DRAM

	tiles []*tileCaches
	banks []*array

	// fillMSHR merges concurrent DRAM fills per bank and line.
	fillMSHR []linetab.Table[*fillOp]

	// Home-bank mapping, fixed at build: bank = (addr / interleave) % tiles,
	// computed as a shift and a mask when both are powers of two (Table III
	// always is). HomeBank is the only bank mapping the model uses.
	ntiles     int
	interleave uint64
	bankShift  uint
	bankMask   uint64
	bankPow2   bool

	// lay is the machine's shard layout. Each tile's private caches, MSHRs
	// and its L3 bank are owned by the tile's shard and touched only from its
	// execution context; every cross-tile action (a directory update at the
	// home bank, a remote private-copy invalidation) is deferred as a barrier
	// op instead of applied inline.
	lay *par.Layout

	// lists holds the op-record freelists, one set per execution context.
	lists []opLists

	// chk, when non-nil, attaches the sanitizer probes (see sanitize.go).
	chk *sanitize.Checker

	// evicting[tile][la] counts tile's L2 evictions of la whose directory
	// update still sits in the op log: until the barrier applies it the
	// directory legally names a copy the tile no longer holds (see
	// privateOrPending). Kept only under a checker.
	evicting []map[uint64]int

	// tr, when non-nil, records hit/miss/evict/fill activity and finalizes
	// the latency attribution of probed loads. Purely observational.
	tr *trace.Tracer

	// Observers wired by the system assembly (prefetchers, stream engines).
	l1Observer     func(tile int, addr uint64, pc uint32, hit bool)
	l2MissObserver func(tile int, lineAddr uint64, pc uint32)
	streamReuse    func(tile int, streamID int)
	l2DirtyEvict   func(tile int, lineAddr uint64)
}

// NewSystem builds the hierarchy for cfg over the machine's shard layout and
// the given mesh and DRAM.
func NewSystem(lay *par.Layout, cfg config.Config, mesh *noc.Mesh, dram *mem.DRAM) *System {
	n := cfg.Tiles()
	s := &System{lay: lay, cfg: cfg, mesh: mesh, dram: dram, lists: make([]opLists, len(lay.Shards))}
	s.ntiles, s.interleave = n, uint64(cfg.L3InterleaveBytes)
	if isPow2(s.interleave) && isPow2(uint64(n)) {
		s.bankPow2, s.bankShift, s.bankMask = true, uint(bits.TrailingZeros64(s.interleave)), uint64(n-1)
	}
	s.tiles = make([]*tileCaches, n)
	s.banks = make([]*array, n)
	s.fillMSHR = make([]linetab.Table[*fillOp], n)
	for i := 0; i < n; i++ {
		s.tiles[i] = &tileCaches{
			l1: newArray(cfg.L1.SizeBytes, cfg.L1.Ways, cfg.L1.BRRIPProb),
			l2: newArray(cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.BRRIPProb),
		}
		// Sized for Table III's MSHRs; the tables grow past them (see mshr).
		s.tiles[i].mshr.Reserve(cfg.L2.MSHREntries)
		s.fillMSHR[i].Reserve(cfg.L3.MSHREntries)
		s.banks[i] = newBank(cfg.L3.SizeBytes, cfg.L3.Ways, cfg.L3.BRRIPProb, cfg.L3InterleaveBytes, n)
	}
	return s
}

func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// HomeBank maps a physical address to its L3 bank under static NUCA: the
// mapping config.Config.HomeBank defines, precomputed for this machine.
func (s *System) HomeBank(addr uint64) int {
	if s.bankPow2 {
		return int(addr >> s.bankShift & s.bankMask)
	}
	return int(addr / s.interleave % uint64(s.ntiles))
}

// MSHRPeak reports the high-water marks of the model's miss handling
// registers over the run so far: the most L2 MSHR entries any one tile held
// at once, and the most DRAM-fill MSHR entries any one bank held at once.
// Table III sizes these at MSHREntries, which the model does not enforce.
func (s *System) MSHRPeak() (l2, fill int) {
	for _, tc := range s.tiles {
		l2 = max(l2, tc.mshr.Peak())
	}
	for i := range s.fillMSHR {
		fill = max(fill, s.fillMSHR[i].Peak())
	}
	return l2, fill
}

// Release hands every array's line slab back for the next machine to build
// on (see array.release). Optional, and only for a hierarchy whose run
// returned normally: nothing may touch it afterwards.
func (s *System) Release() {
	for _, tc := range s.tiles {
		tc.l1.release()
		tc.l2.release()
	}
	for _, b := range s.banks {
		b.release()
	}
}

// SetL1Observer registers a callback invoked on every demand L1 access
// (prefetcher training).
func (s *System) SetL1Observer(fn func(tile int, addr uint64, pc uint32, hit bool)) {
	s.l1Observer = fn
}

// SetL2MissObserver registers a callback invoked on every L2 demand miss.
func (s *System) SetL2MissObserver(fn func(tile int, lineAddr uint64, pc uint32)) {
	s.l2MissObserver = fn
}

// SetStreamReuseObserver registers the SEcore notification fired when a
// stream-tagged private line is reused (float policy input, §IV-D).
func (s *System) SetStreamReuseObserver(fn func(tile int, streamID int)) {
	s.streamReuse = fn
}

// SetL2DirtyEvictObserver registers the SE_L2 alias-check hook fired when a
// dirty line leaves the private L2 (§IV-E, window 2).
func (s *System) SetL2DirtyEvictObserver(fn func(tile int, lineAddr uint64)) {
	s.l2DirtyEvict = fn
}

// SetTracer attaches the structured tracer to the hierarchy. nil detaches.
func (s *System) SetTracer(tr *trace.Tracer) { s.tr = tr }

// LineAddr aligns addr down to its cache line.
func LineAddr(addr uint64) uint64 { return addr &^ (stream.LineBytes - 1) }

// Access sends one access into the hierarchy from the given tile. done (may
// be nil) fires when the access completes from the core's perspective:
// data available for reads, ownership acquired for writes. Prefetches
// complete silently.
func (s *System) Access(tile int, addr uint64, kind Kind, meta Meta, done func(event.Cycle)) {
	la := LineAddr(addr)
	eng := s.lay.Eng(tile)
	// Demand/stream reads entering without a core-attached probe (SEcore
	// fetches, pointer chases) still get latency attribution when tracing.
	if s.tr != nil && meta.Probe == nil && done != nil && (kind == Read || kind == StreamRead) {
		p := s.tr.Probe()
		now := uint64(eng.Now())
		p.Enq, p.Issue = now, now
		meta.Probe = p
	}
	op := s.getOp(tile)
	*op = accessOp{s: s, tile: tile, addr: addr, la: la, kind: kind, meta: meta, done: done}
	switch kind {
	case PrefL2:
		eng.ScheduleCall(event.Cycle(s.cfg.L2.LatCycles), runL2Prefetch, event.Ref{Obj: op})
	case Write:
		eng.ScheduleCall(event.Cycle(s.cfg.L1.LatCycles), runStoreAfterL1, event.Ref{Obj: op})
	default: // Read, PrefL1, StreamRead
		eng.ScheduleCall(event.Cycle(s.cfg.L1.LatCycles), runLoadAfterL1, event.Ref{Obj: op})
	}
}

func (s *System) notifyDone(done func(event.Cycle), now event.Cycle) {
	if done != nil {
		done(now)
	}
}

// loadAfterL1 runs once the L1 tag lookup completes.
func (s *System) loadAfterL1(op *accessOp, now event.Cycle) {
	tile, la, kind, meta := op.tile, op.la, op.kind, op.meta
	tc := s.tiles[tile]
	st := s.lay.St(tile)
	demand := kind == Read || kind == StreamRead
	l := tc.l1.lookup(la)
	if s.l1Observer != nil && demand {
		s.l1Observer(tile, op.addr, meta.PC, l != nil)
	}
	if l != nil {
		if demand {
			st.L1Hits++
			s.demandHitLine(tile, l)
			tc.l1.touch(l)
		}
		if p := meta.Probe; p != nil {
			p.L1Done = uint64(now)
			p.Level = trace.LevelL1
			s.tr.FinishLoad(tile, p, uint64(now))
		}
		s.notifyDone(op.done, now)
		s.putOp(op)
		return
	}
	if demand {
		st.L1Misses++
		if s.tr != nil {
			s.tr.Emit(uint64(now), tile, trace.KindL1Miss, la, int64(meta.StreamID), 0)
		}
	}
	if p := meta.Probe; p != nil {
		p.L1Done = uint64(now)
	}
	// L1 miss: continue to L2 after its lookup latency.
	s.lay.Eng(tile).ScheduleCall(event.Cycle(s.cfg.L2.LatCycles), runLoadAfterL2, event.Ref{Obj: op})
}

// demandHitLine updates reuse/prefetch/stream bookkeeping when a demand
// access hits a private-cache line.
func (s *System) demandHitLine(tile int, l *line) {
	if l.has(fPF) {
		l.set(fPF, false)
		s.lay.St(tile).PrefetchUseful++
	}
	if !l.has(fReused) {
		l.set(fReused, true)
	}
	if l.streamID != noStream && s.streamReuse != nil {
		s.streamReuse(tile, int(l.streamID))
	}
}

func (s *System) loadAfterL2(op *accessOp, now event.Cycle) {
	tile, la, kind, meta := op.tile, op.la, op.kind, op.meta
	tc := s.tiles[tile]
	st := s.lay.St(tile)
	demand := kind == Read || kind == StreamRead
	p := meta.Probe
	if p != nil {
		p.L2Done = uint64(now)
	}
	l := tc.l2.lookup(la)
	if l != nil && l.state() != stInvalid {
		if demand {
			st.L2Hits++
			s.demandHitLine(tile, l)
			tc.l2.touch(l)
		}
		if kind != PrefL2 {
			s.fillL1(tile, la, kind != Read, meta)
		}
		if p != nil {
			p.Level = trace.LevelL2
			s.tr.FinishLoad(tile, p, uint64(now))
		}
		s.notifyDone(op.done, now)
		s.putOp(op)
		return
	}
	if demand {
		st.L2Misses++
		if s.l2MissObserver != nil {
			s.l2MissObserver(tile, la, meta.PC)
		}
		if s.tr != nil {
			s.tr.Emit(uint64(now), tile, trace.KindL2Miss, la, int64(meta.StreamID), 0)
		}
	}
	// Merge into an outstanding miss if one exists: the op parks in the MSHR
	// and op.complete runs when the fill (its own or the one it merged into)
	// arrives.
	if tc.park(la, op) {
		return
	}
	l3kind := stats.L3CoreNormal
	if kind == StreamRead {
		l3kind = stats.L3CoreStream
	}
	s.fetch(tile, la, false, l3kind, meta, kind)
}

// storeAfterL1 handles the store path once L1 lookup completes.
func (s *System) storeAfterL1(op *accessOp, now event.Cycle) {
	tile, la, meta := op.tile, op.la, op.meta
	tc := s.tiles[tile]
	st := s.lay.St(tile)
	l1 := tc.l1.lookup(la)
	if s.l1Observer != nil {
		s.l1Observer(tile, op.addr, meta.PC, l1 != nil)
	}
	l2 := tc.l2.lookup(la)
	if l2 != nil && (l2.state() == stModified || l2.state() == stExclusive) {
		// Writable locally: E upgrades to M silently.
		st.L1Hits++ // store hit from the pipeline's perspective
		l2.setState(stModified)
		l2.set(fDirty, true)
		s.demandHitLine(tile, l2)
		tc.l2.touch(l2)
		if l1 == nil {
			s.fillL1(tile, la, false, meta)
			l1 = tc.l1.lookup(la)
		}
		if l1 != nil {
			l1.set(fDirty, true)
			tc.l1.touch(l1)
		}
		s.notifyDone(op.done, now)
		s.putOp(op)
		return
	}
	st.L1Misses++
	// Needs ownership: S upgrade or full RFO miss.
	if l2 != nil && l2.state() == stShared {
		st.L2Hits++
	} else {
		st.L2Misses++
		if s.l2MissObserver != nil {
			s.l2MissObserver(tile, la, meta.PC)
		}
		if s.tr != nil {
			s.tr.Emit(uint64(now), tile, trace.KindL2Miss, la, int64(meta.StreamID), 1)
		}
	}
	if tc.park(la, op) {
		return
	}
	s.fetch(tile, la, true, stats.L3CoreNormal, meta, Write)
}

// l2Prefetch installs a line into L2 only (L2 stride prefetcher).
func (s *System) l2Prefetch(tile int, la uint64, meta Meta) {
	tc := s.tiles[tile]
	if tc.l2.lookup(la) != nil {
		return
	}
	if _, busy := tc.mshr.Ref(la); busy {
		return // demand or another prefetch already fetching
	}
	s.lay.St(tile).PrefetchIssued++
	s.fetch(tile, la, false, stats.L3CoreNormal, meta, PrefL2)
}

// PrefetchBulkL2 issues a group of L2 prefetches to a single L3 bank as one
// request message (the bulk-prefetch baseline of §VI). All lines must map to
// the same bank; the caller guarantees this.
func (s *System) PrefetchBulkL2(tile int, bank int, lineAddrs []uint64, meta Meta) {
	tc := s.tiles[tile]
	var bulk *missOp
	for _, la := range lineAddrs {
		if tc.l2.lookup(la) != nil {
			continue
		}
		if _, busy := tc.mshr.Ref(la); busy {
			continue
		}
		s.lay.St(tile).PrefetchIssued++
		if bulk == nil {
			bulk = s.getMiss(tile)
			bulk.tile, bulk.bank = tile, bank
		}
		bulk.lines = append(bulk.lines, la)
	}
	if bulk == nil {
		return
	}
	// One request message carries all grouped line addresses.
	s.mesh.SendCall(tile, bank, stats.ClassCtrlReq, 8*len(bulk.lines), runBulkAtBank, event.Ref{Obj: bulk})
}

// runBulkAtBank unpacks a bulk request at its bank into one GetS per line.
func runBulkAtBank(_ event.Cycle, ref event.Ref) {
	bulk := ref.Obj.(*missOp)
	s := bulk.s
	for _, la := range bulk.lines {
		m := s.getMiss(bulk.bank)
		m.tile, m.bank, m.la, m.l3kind, m.meta, m.kind = bulk.tile, bulk.bank, la, stats.L3CoreNormal, NoMeta, PrefL2
		s.bankHandle(m)
	}
	s.putMiss(bulk.bank, bulk)
}

// fetch sends a GetS/GetX to the home bank; the reply completes the fill.
func (s *System) fetch(tile int, la uint64, excl bool, l3kind stats.L3ReqKind, meta Meta, kind Kind) {
	if kind == PrefL1 || kind == PrefL2 {
		s.lay.St(tile).PrefetchIssued++
	}
	m := s.getMiss(tile)
	m.tile, m.bank, m.la, m.excl, m.l3kind, m.meta, m.kind = tile, s.HomeBank(la), la, excl, l3kind, meta, kind
	s.mesh.SendCall(tile, m.bank, stats.ClassCtrlReq, 8, runMissAtBank, event.Ref{Obj: m})
}

// runMissAtBank is the request's arrival at its home bank.
func runMissAtBank(now event.Cycle, ref event.Ref) {
	m := ref.Obj.(*missOp)
	if p := m.meta.Probe; p != nil {
		p.ReqAtBank = uint64(now)
	}
	m.s.bankHandle(m)
}

// runMissReply is the data (or upgrade ack) reaching the requester.
func runMissReply(now event.Cycle, ref event.Ref) {
	m := ref.Obj.(*missOp)
	s := m.s
	s.finishFetch(m.tile, m.la, m.granted, m.meta, m.kind, now)
	s.putMiss(m.tile, m)
}

// finishFetch installs the response in the private caches and wakes MSHR
// waiters.
func (s *System) finishFetch(tile int, la uint64, granted state, meta Meta, kind Kind, now event.Cycle) {
	tc := s.tiles[tile]
	s.traceFill(tile, la, granted, now)
	if s.tr != nil {
		s.tr.Emit(uint64(now), tile, trace.KindFill, la, int64(granted), int64(kind))
	}
	s.fillL2(tile, la, granted, meta, kind)
	if kind != PrefL2 {
		s.fillL1(tile, la, kind == PrefL1 || kind == StreamRead, meta)
	}
	last, _ := tc.mshr.Delete(la)
	if last == nil {
		return
	}
	for w := last.next; ; {
		next := w.next // complete returns w to its freelist
		w.complete(now)
		if w == last {
			return
		}
		w = next
	}
}

// fillL2 installs la into the tile's L2 with the granted MESI state.
func (s *System) fillL2(tile int, la uint64, granted state, meta Meta, kind Kind) {
	tc := s.tiles[tile]
	slot, hit := tc.l2.probe(la)
	if hit {
		// Upgrade of an existing line.
		slot.setState(granted)
		if granted == stModified {
			slot.set(fDirty, true)
		}
		return
	}
	if va, ok := tc.l2.addrOf(slot); ok {
		s.evictL2(tile, slot, va)
	}
	tc.l2.insert(slot, la)
	slot.setState(granted)
	slot.set(fDirty, granted == stModified)
	slot.set(fPF, kind == PrefL1 || kind == PrefL2)
	if meta.StreamID >= 0 {
		slot.streamID = int16(meta.StreamID)
		slot.set(fStream, true)
	}
}

// fillL1 installs la into the tile's L1.
func (s *System) fillL1(tile int, la uint64, pf bool, meta Meta) {
	tc := s.tiles[tile]
	slot, hit := tc.l1.probe(la)
	if hit {
		return
	}
	if va, ok := tc.l1.addrOf(slot); ok {
		s.evictL1(tile, slot, va)
	}
	tc.l1.insert(slot, la)
	slot.set(fPF, pf)
	if meta.StreamID >= 0 {
		slot.streamID = int16(meta.StreamID)
		slot.set(fStream, true)
	}
}

// evictL1 handles an L1 replacement: dirty data merges into the (inclusive)
// L2 copy locally, with no network traffic.
func (s *System) evictL1(tile int, victim *line, va uint64) {
	if victim.has(fDirty) {
		if l2 := s.tiles[tile].l2.lookup(va); l2 != nil {
			l2.set(fDirty, true)
			if l2.state() == stExclusive {
				l2.setState(stModified)
			}
		}
	}
	s.tiles[tile].l1.invalidate(victim)
}

// evictL2 handles an L2 replacement: dirty lines write back to the home
// bank; clean lines send the directory a PutS notification — the coherence
// bookkeeping traffic that Fig 2b measures. The victim's L1 copy is
// back-invalidated to preserve inclusion.
func (s *System) evictL2(tile int, victim *line, va uint64) {
	home := s.HomeBank(va)
	st := s.lay.St(tile)
	dirty := victim.has(fDirty) || victim.state() == stModified
	s.traceEvict("l2", tile, va, victim, s.lay.Eng(tile).Now())
	if s.tr != nil {
		var a, b int64
		if dirty {
			a = 1
		}
		if victim.has(fReused) {
			b = 1
		}
		s.tr.Emit(uint64(s.lay.Eng(tile).Now()), tile, trace.KindL2Evict, va, a, b)
	}

	st.L2Evictions++
	if !dirty && !victim.has(fReused) {
		st.L2EvictCleanNoReuse++
		if victim.has(fStream) {
			st.L2EvictCleanNoReuseStream++
		}
		// Fig 2b attribution: the flit-hops spent caching this line for
		// nothing — the original request and data response plus this
		// eviction notification.
		hops := uint64(s.mesh.Hops(tile, home))
		dataFlits := uint64(s.mesh.Flits(stream.LineBytes))
		st.UnreusedCtrlFlitHops += 2 * hops // GetS request + PutS
		st.UnreusedDataFlitHops += dataFlits * hops
	}

	// Back-invalidate the L1 copy (merging its dirty data first).
	if l1 := s.tiles[tile].l1.lookup(va); l1 != nil {
		if l1.has(fDirty) {
			dirty = true
		}
		s.tiles[tile].l1.invalidate(l1)
	}

	// The directory update is applied at the barrier (the home bank belongs
	// to another tile); the message models traffic and occupancy.
	op := s.getCoh(tile)
	op.s, op.bank, op.tile, op.la, op.flag = s, home, tile, va, dirty
	s.lay.Defer(tile, runDirUpdate, op)
	if s.chk != nil {
		s.evicting[tile][va]++
	}
	if dirty {
		if s.l2DirtyEvict != nil {
			s.l2DirtyEvict(tile, va)
		}
		s.mesh.Send(tile, home, stats.ClassData, stream.LineBytes, func(event.Cycle) {})
	} else {
		s.mesh.Send(tile, home, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
	}
	s.tiles[tile].l2.invalidate(victim)
}

// runDirUpdate is the barrier op that makes the home directory forget an
// evicted L2 copy.
func runDirUpdate(_ event.Cycle, arg any) {
	op := arg.(*cohOp)
	s, tile := op.s, op.tile
	s.banks[op.bank].forget(op.la, tile, op.flag)
	if s.chk != nil {
		if s.evicting[tile][op.la]--; s.evicting[tile][op.la] == 0 {
			delete(s.evicting[tile], op.la)
		}
	}
	s.putCoh(op)
}

// forget makes the bank's directory entry for la, if it holds one, forget
// tile's copy, marking the line dirty if the copy was.
func (a *array) forget(la uint64, tile int, dirty bool) {
	dl := a.lookup(la)
	if dl == nil {
		return
	}
	w := a.indexOf(dl)
	a.sharers[w] &^= 1 << uint(tile)
	if a.owner[w] == int16(tile) {
		a.owner[w] = noOwner
	}
	if dirty {
		dl.set(fDirty, true)
	}
}

// runInvalidate is the barrier-op form of invalidatePrivate: a bank drops a
// remote tile's private copy.
func runInvalidate(_ event.Cycle, arg any) {
	op := arg.(*cohOp)
	op.s.invalidatePrivate(op.tile, op.la)
	op.s.putCoh(op)
}

// runBankDirty marks a home-bank directory entry dirty (owner writeback in
// flight).
func runBankDirty(_ event.Cycle, arg any) {
	op := arg.(*cohOp)
	if dl := op.s.banks[op.bank].lookup(op.la); dl != nil {
		dl.set(fDirty, true)
	}
	op.s.putCoh(op)
}
