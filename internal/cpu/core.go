// Package cpu models the three evaluated core microarchitectures (IO4,
// OOO4, OOO8) executing stream-compiled programs. The model is an
// iteration-window abstraction of the pipeline: up to W loop iterations are
// in flight (W derived from ROB capacity; ~1 for the in-order core),
// iteration starts are bounded by issue width, outstanding plain loads are
// bounded by the load queue, and an iteration completes its dependent
// compute only after all its loads return. This reproduces the
// latency-exposure differences between the cores that the paper's results
// hinge on, without simulating individual instructions.
package cpu

import (
	"fmt"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/mem"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
	"streamfloat/internal/workload"
)

// StreamSource is the stream engine a stream-specialized core consumes
// elements from (SEcore; implemented in internal/core). In SS mode the
// source prefetches through the private caches; in SF mode it may float
// streams to the L3 stream engines.
type StreamSource interface {
	// ConfigurePhase installs the phase's load streams (stream_cfg) and
	// calls ready once configuration has committed.
	ConfigurePhase(coreID int, phase *workload.Phase, ready func())
	// RequestElement asks for element idx of stream sid; cb fires when the
	// element is consumable (first use, §III-B).
	RequestElement(coreID int, sid int, idx int64, cb func(event.Cycle))
	// ReleaseElement retires element idx (stream_step), freeing buffering.
	ReleaseElement(coreID int, sid int, idx int64)
	// EndPhase deconstructs the phase's streams (stream_end).
	EndPhase(coreID int)
}

// Core is one simulated core executing its program phase by phase.
type Core struct {
	ID     int
	eng    *event.Engine
	st     *stats.Stats
	params config.CoreParams
	mem    *cache.System
	bk     *mem.Backing
	se     StreamSource // nil when streams are off

	prog  *workload.Program
	phase *workload.Phase

	window     int
	inflight   int
	nextIter   int64
	retired    int64
	issueReady float64

	outLoads  int                 // plain loads in flight (LQ bound)
	loadQ     event.Queue[loadOp] // loads waiting for a load-queue entry
	outStores int                 // stores in flight (SQ bound)
	storeQ    event.Queue[storeOp]

	// hasDeps[k] says phase.Loads[k] is the base of at least one indirect
	// load; numIndirect counts the indirect loads. Both per phase.
	hasDeps     []bool
	numIndirect int

	// Op-record freelists. A core's events all run in its own tile's
	// context, so the lists are the core's.
	iterFree  event.Freelist[iterOp]
	loadFree  event.Freelist[loadOp]
	storeFree event.Freelist[storeOp]

	phaseIdx  int
	phaseDone func()

	// chk, when non-nil, attaches the sanitizer probes: load-queue bound,
	// negative-counter detection, and phase-completion residue checks.
	chk *sanitize.Checker

	// tr, when non-nil, records phase/iteration/stall events and rides a
	// latency-attribution probe on every plain load.
	tr *trace.Tracer
}

// SetChecker attaches sanitizer probes to the core. nil detaches.
func (c *Core) SetChecker(chk *sanitize.Checker) { c.chk = chk }

// SetTracer attaches the structured tracer to the core. nil detaches.
func (c *Core) SetTracer(tr *trace.Tracer) { c.tr = tr }

// sanKey tags this core's trace records.
func (c *Core) sanKey() uint64 { return uint64(0xC)<<56 | uint64(c.ID) }

// NewCore builds a core bound to its program.
func NewCore(id int, eng *event.Engine, st *stats.Stats, params config.CoreParams,
	memsys *cache.System, bk *mem.Backing, se StreamSource, prog *workload.Program) *Core {
	return &Core{ID: id, eng: eng, st: st, params: params, mem: memsys, bk: bk, se: se, prog: prog}
}

// BeginPhase starts executing phase idx; done fires when every iteration has
// retired and all stores have drained (the core has reached the barrier).
func (c *Core) BeginPhase(idx int, done func()) {
	if c.chk != nil {
		c.chk.Trace(sanitize.Record{
			Cycle: uint64(c.eng.Now()), Tile: c.ID, Comp: "cpu", Event: "phase",
			Key: c.sanKey(), A: int64(idx), B: c.prog.Phases[idx].NumIters,
		})
	}
	if c.tr != nil {
		c.tr.Emit(uint64(c.eng.Now()), c.ID, trace.KindPhaseBegin, c.sanKey(),
			int64(idx), c.prog.Phases[idx].NumIters)
	}
	c.phaseIdx = idx
	c.phase = &c.prog.Phases[idx]
	c.phaseDone = done
	c.inflight, c.nextIter, c.retired = 0, 0, 0
	c.issueReady = float64(c.eng.Now())
	if c.phase.NumIters == 0 {
		c.eng.ScheduleCall(0, runThunk, event.Ref{Obj: done})
		return
	}
	c.window = c.computeWindow()
	if c.se == nil {
		c.setupPhaseLoads()
	}
	if c.se != nil && len(c.phase.Loads) > 0 {
		c.se.ConfigurePhase(c.ID, c.phase, func() { c.startIters() })
		return
	}
	c.startIters()
}

// computeWindow derives the in-flight iteration bound from the pipeline
// parameters: the ROB must hold every in-flight iteration's instructions,
// and the in-order core overlaps at most the fetch of the next iteration.
func (c *Core) computeWindow() int {
	instrs := c.phase.InstrsPerIter
	if instrs <= 0 {
		instrs = 1
	}
	w := c.params.ROBSize / instrs
	if w < 1 {
		w = 1
	}
	if c.params.InOrder && w > 2 {
		w = 2
	}
	return w
}

// Fixed-payload event handlers: the hot per-iteration and per-phase events
// schedule through these instead of allocating a closure each.
func runThunk(_ event.Cycle, ref event.Ref) { ref.Obj.(func())() }

func runBeginIter(_ event.Cycle, ref event.Ref) { ref.Obj.(*Core).beginIter(ref.A) }

func runRetire(_ event.Cycle, ref event.Ref) { ref.Obj.(*Core).retire(ref.A) }

// The op records below replace the closures an iteration and its accesses
// would otherwise capture. Each is recycled through its core's freelist; the
// func values they hand to callees that only take a func (RequestElement's
// cb, cache.System.Access's done) are bound to the record once, when it is
// first allocated. A put resets everything else, so a late callback into a
// returned record dereferences a nil Core.

// iterOp is one in-flight iteration from beginIter until its last load
// returns and its retire is scheduled.
type iterOp struct {
	c       *Core
	i       int64       // iteration index
	pending int         // loads not yet returned
	start   event.Cycle // issue cycle (stream-element latency base)
	issuing bool        // beginIter is still issuing loads: do not recycle

	elemDone func(event.Cycle) // RequestElement callback, bound once
}

// loadOp is one plain demand load from plainLoad to its completion.
type loadOp struct {
	c     *Core
	it    *iterOp
	addr  uint64
	pc    uint32
	sid   int
	probe *trace.LoadProbe
	start event.Cycle // cycle the load queue admitted it

	// base, when non-nil, is this load's own (affine) stream declaration and
	// says indirect loads are chained on it: they issue when it completes.
	base *stream.Decl
	// chase, when non-nil, is a pointer chase this load is element k of: the
	// next element issues when it completes.
	chase []uint64
	k     int

	done func(event.Cycle) // cache.System.Access completion, bound once
}

// storeOp is one committed store from retire to ownership.
type storeOp struct {
	c    *Core
	addr uint64
	pc   uint32
	sid  int

	done func(event.Cycle) // cache.System.Access completion, bound once
}

func (c *Core) getIter(i int64) *iterOp {
	it := c.iterFree.Get()
	if it == nil {
		it = new(iterOp)
		it.elemDone = it.elementArrived
	}
	it.c, it.i, it.start, it.issuing = c, i, c.eng.Now(), true
	return it
}

func (c *Core) putIter(it *iterOp) {
	if it.c == nil {
		c.doublePut("iterOp")
	}
	*it = iterOp{elemDone: it.elemDone}
	c.iterFree.Put(it)
}

func (c *Core) getLoad(it *iterOp, addr uint64, pc uint32, sid int) *loadOp {
	op := c.loadFree.Get()
	if op == nil {
		op = new(loadOp)
		op.done = op.complete
	}
	op.c, op.it, op.addr, op.pc, op.sid = c, it, addr, pc, sid
	return op
}

func (c *Core) putLoad(op *loadOp) {
	if op.c == nil {
		c.doublePut("loadOp")
	}
	*op = loadOp{done: op.done}
	c.loadFree.Put(op)
}

func (c *Core) getStore() *storeOp {
	op := c.storeFree.Get()
	if op == nil {
		op = new(storeOp)
		op.done = op.complete
	}
	op.c = c
	return op
}

func (c *Core) putStore(op *storeOp) {
	if op.c == nil {
		c.doublePut("storeOp")
	}
	*op = storeOp{done: op.done}
	c.storeFree.Put(op)
}

// doublePut reports a record returned twice (a put leaves the owner nil).
func (c *Core) doublePut(what string) {
	if c.chk != nil {
		c.chk.Failf(c.sanKey(), "cpu: core %d returned %s to its freelist twice", c.ID, what)
	}
	panic("cpu: " + what + " returned to its freelist twice")
}

func (c *Core) startIters() {
	for c.inflight < c.window && c.nextIter < c.phase.NumIters {
		i := c.nextIter
		c.nextIter++
		c.inflight++
		at := float64(c.eng.Now())
		if c.issueReady > at {
			at = c.issueReady
		}
		c.issueReady = at + float64(c.phase.InstrsPerIter)/float64(c.params.IssueWidth)
		c.eng.AtCall(event.Cycle(at), runBeginIter, event.Ref{Obj: c, A: i})
	}
}

// beginIter issues iteration i's loads.
func (c *Core) beginIter(i int64) {
	if c.tr != nil {
		c.tr.Emit(uint64(c.eng.Now()), c.ID, trace.KindIterIssue, uint64(i),
			int64(len(c.phase.Loads)), int64(c.inflight))
	}
	it := c.getIter(i)

	if c.se != nil {
		for k := range c.phase.Loads {
			it.pending++
			c.se.RequestElement(c.ID, c.phase.Loads[k].ID, i, it.elemDone)
		}
	} else {
		// Plain core: affine loads issue immediately; indirect loads wait
		// for their base stream's element value (see loadOp.complete).
		it.pending += c.numIndirect
		for k := range c.phase.Loads {
			d := &c.phase.Loads[k]
			if d.IsIndirect() {
				continue
			}
			it.pending++
			op := c.getLoad(it, d.Affine.AddrAt(i), d.PC, d.ID)
			if c.hasDeps[k] {
				op.base = d
			}
			c.plainLoad(op)
		}
	}

	// Dependent pointer-chase loads execute sequentially.
	if c.phase.SeqLoads != nil {
		chainAddrs := c.phase.SeqLoads(i)
		if len(chainAddrs) > 0 {
			it.pending++
			op := c.getLoad(it, chainAddrs[0], chasePC, -1)
			op.chase = chainAddrs
			c.plainLoad(op)
		}
	}

	it.issuing = false
	if it.pending == 0 {
		it.complete()
	}
}

// chasePC is the synthetic PC of pointer-chase loads.
const chasePC = uint32(0xC0DE)

// elementArrived is a stream element becoming consumable (bound as
// it.elemDone).
func (it *iterOp) elementArrived(now event.Cycle) {
	it.c.st.RecordLoadLatency(uint64(now - it.start))
	it.loadDone()
}

// loadDone counts one of the iteration's loads as returned.
func (it *iterOp) loadDone() {
	it.pending--
	if it.pending == 0 {
		it.complete()
	}
}

// complete schedules the iteration's retire after its dependent compute. The
// record is done with unless beginIter is still issuing (a callback fired
// synchronously): then beginIter's own tail returns it.
func (it *iterOp) complete() {
	c := it.c
	c.eng.ScheduleCall(event.Cycle(c.phase.ComputeCycles), runRetire, event.Ref{Obj: c, A: it.i})
	if !it.issuing {
		c.putIter(it)
	}
}

// setupPhaseLoads derives the per-phase indirect-chaining tables.
func (c *Core) setupPhaseLoads() {
	loads := c.phase.Loads
	c.hasDeps = append(c.hasDeps[:0], make([]bool, len(loads))...)
	c.numIndirect = 0
	for k := range loads {
		if !loads[k].IsIndirect() {
			continue
		}
		c.numIndirect++
		c.hasDeps[c.findLoad(loads[k].BaseOn)] = true
	}
}

// findLoad returns the index of the load stream declaration with the given
// id.
func (c *Core) findLoad(id int) int {
	for k := range c.phase.Loads {
		if c.phase.Loads[k].ID == id {
			return k
		}
	}
	panic("cpu: indirect stream chained on missing base stream")
}

// plainLoad sends a demand load through the hierarchy, respecting the load
// queue bound.
func (c *Core) plainLoad(op *loadOp) {
	// A tracer probe rides the load through the hierarchy via cache.Meta;
	// Enq is stamped here (load-queue entry), Issue when the LQ admits it.
	if c.tr != nil {
		op.probe = c.tr.Probe()
		op.probe.Enq = uint64(c.eng.Now())
	}
	if c.outLoads >= c.params.LQSize {
		if c.tr != nil {
			c.tr.Emit(uint64(c.eng.Now()), c.ID, trace.KindStallLQ, op.addr, int64(c.loadQ.Len()), int64(op.sid))
		}
		c.loadQ.Push(op)
		return
	}
	c.issueLoad(op)
}

// issueLoad admits a load to the load queue and sends it to memory.
func (c *Core) issueLoad(op *loadOp) {
	c.outLoads++
	if c.chk != nil && c.outLoads > c.params.LQSize {
		c.chk.Failf(c.sanKey(), "cpu: core %d has %d loads in flight, LQ size %d", c.ID, c.outLoads, c.params.LQSize)
	}
	op.start = c.eng.Now()
	if op.probe != nil {
		op.probe.Issue = uint64(op.start)
	}
	c.mem.Access(c.ID, op.addr, cache.Read, cache.Meta{PC: op.pc, StreamID: op.sid, Probe: op.probe}, op.done)
}

// complete is the load's data arriving (bound as op.done): the load-queue
// entry frees, queued loads issue, then whatever depended on this load goes
// next: the following pointer-chase element, or the indirect loads chained on
// this stream, and last the iteration's own count.
func (op *loadOp) complete(now event.Cycle) {
	c := op.c
	c.outLoads--
	if c.chk != nil && c.outLoads < 0 {
		c.chk.Failf(c.sanKey(), "cpu: core %d load-queue count went negative", c.ID)
	}
	c.st.RecordLoadLatency(uint64(now - op.start))
	c.drainLoadQ()
	if op.k+1 < len(op.chase) {
		op.k++
		op.addr, op.probe = op.chase[op.k], nil
		c.plainLoad(op)
		return
	}
	it := op.it
	if base := op.base; base != nil {
		idx := uint64(c.bk.ReadU32(base.Affine.AddrAt(it.i)))
		for k := range c.phase.Loads {
			if d := &c.phase.Loads[k]; d.IsIndirect() && d.BaseOn == base.ID {
				c.plainLoad(c.getLoad(it, d.Indirect.AddrFor(idx), d.PC, d.ID))
			}
		}
	}
	c.putLoad(op)
	it.loadDone()
}

func (c *Core) drainLoadQ() {
	for c.loadQ.Len() > 0 && c.outLoads < c.params.LQSize {
		c.issueLoad(c.loadQ.Pop())
	}
}

// store sends a committed store, respecting the store-queue bound. Stores
// are posted (they do not block retirement) but must drain before the
// barrier.
func (c *Core) store(addr uint64, pc uint32, sid int) {
	op := c.getStore()
	op.addr, op.pc, op.sid = addr, pc, sid
	c.outStores++
	if c.outStores > c.params.SQSize {
		c.storeQ.Push(op)
		return
	}
	c.issueStore(op)
}

func (c *Core) issueStore(op *storeOp) {
	c.mem.Access(c.ID, op.addr, cache.Write, cache.Meta{PC: op.pc, StreamID: op.sid}, op.done)
}

// complete is the store's ownership arriving (bound as op.done).
func (op *storeOp) complete(event.Cycle) {
	c := op.c
	c.putStore(op)
	c.outStores--
	c.drainStoreQ()
	c.maybeFinishPhase()
}

func (c *Core) drainStoreQ() {
	if c.storeQ.Len() > 0 {
		c.issueStore(c.storeQ.Pop())
	}
}

// retire completes iteration i: stores issue, stream elements release, and
// the window advances.
func (c *Core) retire(i int64) {
	for k := range c.phase.Stores {
		d := &c.phase.Stores[k]
		c.store(d.Affine.AddrAt(i), d.PC, d.ID)
	}
	if c.se != nil {
		for k := range c.phase.Loads {
			c.se.ReleaseElement(c.ID, c.phase.Loads[k].ID, i)
		}
	}
	if c.tr != nil {
		c.tr.Emit(uint64(c.eng.Now()), c.ID, trace.KindIterRetire, uint64(i),
			int64(len(c.phase.Stores)), int64(c.inflight-1))
	}
	c.inflight--
	c.retired++
	c.st.Iterations++
	c.st.Instructions += uint64(c.phase.InstrsPerIter)
	if c.retired == c.phase.NumIters {
		if c.se != nil && len(c.phase.Loads) > 0 {
			c.se.EndPhase(c.ID)
		}
		c.maybeFinishPhase()
		return
	}
	c.startIters()
}

// Progress reports the core's execution state for diagnostics.
func (c *Core) Progress() string {
	if c.phase == nil {
		return fmt.Sprintf("core %d: idle", c.ID)
	}
	return fmt.Sprintf("core %d: phase %d %q retired %d/%d inflight %d outLoads %d outStores %d loadQ %d",
		c.ID, c.phaseIdx, c.phase.Name, c.retired, c.phase.NumIters, c.inflight, c.outLoads, c.outStores, c.loadQ.Len())
}

// maybeFinishPhase signals the barrier once all work and stores complete.
func (c *Core) maybeFinishPhase() {
	if c.phase == nil || c.retired != c.phase.NumIters || c.outStores != 0 {
		return
	}
	if c.chk != nil {
		if c.inflight != 0 {
			c.chk.Failf(c.sanKey(), "cpu: core %d finished phase %d with %d iterations still in flight",
				c.ID, c.phaseIdx, c.inflight)
		}
		if c.loadQ.Len() != 0 || c.storeQ.Len() != 0 || c.outLoads != 0 {
			c.chk.Failf(c.sanKey(), "cpu: core %d finished phase %d with queued work (loadQ %d, storeQ %d, outLoads %d)",
				c.ID, c.phaseIdx, c.loadQ.Len(), c.storeQ.Len(), c.outLoads)
		}
		if it, ld, st := c.iterFree.Out(), c.loadFree.Out(), c.storeFree.Out(); it != 0 || ld != 0 || st != 0 {
			c.chk.Failf(c.sanKey(), "cpu: core %d finished phase %d with op records outstanding: %d iterOp, %d loadOp, %d storeOp",
				c.ID, c.phaseIdx, it, ld, st)
		}
	}
	done := c.phaseDone
	c.phaseDone = nil
	if done != nil {
		if c.tr != nil {
			c.tr.Emit(uint64(c.eng.Now()), c.ID, trace.KindPhaseEnd, c.sanKey(),
				int64(c.phaseIdx), c.retired)
		}
		done()
	}
}
