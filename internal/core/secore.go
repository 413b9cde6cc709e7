package core

import (
	"sort"

	"streamfloat/internal/cache"
	"streamfloat/internal/event"
	"streamfloat/internal/stream"
	"streamfloat/internal/workload"
)

// histEntry is one row of the stream history table (Table II), keyed by the
// stream's PC so it persists across phases.
type histEntry struct {
	requests uint64 // stream requests issued
	misses   uint64 // private-cache misses among them
	reuses   uint64 // private-cache reuses of stream-brought lines
	aliased  bool
	floated  bool // sticky decision: this stream qualified for floating
	sunk     bool // sticky: floating was undone (alias or private hits)
}

// csKind is the serving mode of one configured stream at the core.
type csKind int

const (
	csCached         csKind = iota // SEcore prefetches through the caches (SS)
	csFloatLeader                  // floated; data buffered at SE_L2
	csFloatServed                  // served from an offset-group leader's buffer
	csIndirectCached               // indirect, issued by SEcore when index ready
	csIndirectFloat                // indirect, floated with its base stream
	csSunk                         // sunk mid-phase: plain demand loads
)

// fifoLine is one line slot of the SEcore stream FIFO. A slot is freed once
// every element has been handed to the pipeline (first use dispatches to the
// LQ and the PEB entry is released, §III-B) — not at retirement, so the
// FIFO's run-ahead depth adds to the core's own window.
type fifoLine struct {
	ref     lineRef
	arrived bool
	served  int
	waiters []func(event.Cycle)
}

// indElem tracks one in-flight or buffered indirect element at the core.
type indElem struct {
	arrived bool
	issued  bool
	waiters []func(event.Cycle)
}

// coreStream is the SEcore state of one configured stream.
type coreStream struct {
	decl stream.Decl
	kind csKind
	hist *histEntry

	// Cached (SS) affine state.
	walker  *lineWalker
	fifoCap int
	held    int
	lines   map[int64]*fifoLine
	elemSeq map[int64]int64
	demand  map[int64][]func(event.Cycle) // waiters beyond the walk frontier

	// Mid-phase floating: elements >= floatFrom are served by SE_L2.
	floatFrom int64
	group     *l2Group

	// Sinking: after a sink, cached service resumes at cachedStart;
	// earlier unserved elements fall back to demand loads.
	cachedStart int64
	hitStreak   int   // consecutive private-cache hits on floated elements
	lastReq     int64 // highest element index the core has requested

	// Offset-group service.
	leader *coreStream

	// Indirect state.
	base      *coreStream
	inflight  int
	elems     map[int64]*indElem
	indirects []*coreStream // children of an affine stream

	// Sanitizer element-conservation books (only maintained with a
	// checker attached): requests issued, requests served, retirements.
	sanReq, sanServed, sanRel int64
}

// seCore is the per-tile core stream engine.
type seCore struct {
	e       *Engines
	tile    int
	phase   *workload.Phase
	streams map[int]*coreStream
	hist    map[uint32]*histEntry

	// pendingDbg, when non-nil, counts un-answered element requests per
	// stream (diagnostics only).
	pendingDbg map[int]int64
}

func newSECore(e *Engines, tile int) *seCore {
	return &seCore{e: e, tile: tile, hist: make(map[uint32]*histEntry)}
}

func (c *seCore) histFor(pc uint32) *histEntry {
	h := c.hist[pc]
	if h == nil {
		h = &histEntry{}
		c.hist[pc] = h
	}
	return h
}

// missLatency is the completion latency above which a stream request is
// assumed to have missed the private caches.
func (c *seCore) missLatency() event.Cycle {
	return event.Cycle(c.e.cfg.L1.LatCycles + c.e.cfg.L2.LatCycles + 2)
}

// configurePhase implements stream_cfg for every load stream of the phase:
// it builds SEcore state, applies the float policy (§IV-D), detects offset
// groups (§IV-B), and registers floated streams with SE_L2.
func (c *seCore) configurePhase(phase *workload.Phase, ready func()) {
	c.phase = phase
	c.streams = make(map[int]*coreStream, len(phase.Loads))

	var affines, indirects []*coreStream
	for i := range phase.Loads {
		d := phase.Loads[i]
		s := &coreStream{decl: d, hist: c.histFor(d.PC), floatFrom: -1, lastReq: -1}
		c.streams[d.ID] = s
		if d.IsIndirect() {
			s.kind = csIndirectCached
			indirects = append(indirects, s)
		} else {
			s.kind = csCached
			s.walker = newLineWalker(*d.Affine)
			s.lines = make(map[int64]*fifoLine)
			s.elemSeq = make(map[int64]int64)
			s.demand = make(map[int64][]func(event.Cycle))
			affines = append(affines, s)
		}
	}
	for _, s := range indirects {
		base := c.streams[s.decl.BaseOn]
		s.base = base
		s.elems = make(map[int64]*indElem)
		base.indirects = append(base.indirects, s)
	}

	// Record offset-group membership regardless of the float decision so a
	// later (history-driven) float of the leader still serves the group.
	leaders := c.detectOffsetGroups(affines)
	for m, l := range leaders {
		m.leader = l
	}

	if c.e.floating() {
		c.applyFloatPolicy(affines, leaders)
	}

	// Size the stream FIFO. Every affine stream gets a share — floated
	// streams too, since a sink returns them to FIFO service.
	per := c.e.cfg.CoreParams().SEFIFOBytes / (lineBytes * max(1, len(phase.Loads)))
	if per < 1 {
		per = 1
	}
	for _, s := range affines {
		s.fifoCap = per
		if s.kind == csCached {
			c.issueLines(s)
		}
	}

	// Decode/commit latency for the configure instructions.
	c.e.lay.Eng(c.tile).ScheduleCall(2, runThunk, event.Ref{Obj: ready})
}

// detectOffsetGroups finds sets of affine streams that are constant-offset
// copies of each other (the stencil case). It returns, for each grouped
// stream, its group leader (the member with the highest base, which reads
// fresh data first). Leaders map to themselves; ungrouped streams are
// absent.
func (c *seCore) detectOffsetGroups(affines []*coreStream) map[*coreStream]*coreStream {
	leaders := make(map[*coreStream]*coreStream)
	type shape struct {
		strides [stream.Levels]int64
		lens    [stream.Levels]int64
		elem    int64
	}
	byShape := make(map[shape][]*coreStream)
	for _, s := range affines {
		a := s.decl.Affine
		if !a.Contiguous() || len(s.indirects) > 0 {
			continue
		}
		// Require monotonic nondecreasing addresses so that buffer service
		// by address is well defined.
		mono := true
		span := a.ElemSize * a.Lens[0]
		for lv := 1; lv < stream.Levels; lv++ {
			if a.Lens[lv] > 1 {
				if a.Strides[lv] < span {
					mono = false
					break
				}
				span += a.Strides[lv] * (a.Lens[lv] - 1)
			}
		}
		if !mono {
			continue
		}
		byShape[shape{a.Strides, a.Lens, a.ElemSize}] = append(
			byShape[shape{a.Strides, a.Lens, a.ElemSize}], s)
	}
	maxSpan := int64(c.e.cfg.SEL2BufferBytes / 2)
	for _, members := range byShape {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool {
			return members[i].decl.Affine.Base < members[j].decl.Affine.Base
		})
		leader := members[len(members)-1]
		ok := true
		for _, m := range members[:len(members)-1] {
			k, _ := leader.decl.Affine.OffsetOf(*m.decl.Affine)
			if k >= 0 || -k > maxSpan || (-k)%lineBytes != 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, m := range members {
			leaders[m] = leader
		}
	}
	return leaders
}

// qualifies applies the §IV-D float test to one affine stream.
func (c *seCore) qualifies(s *coreStream) bool {
	h := s.hist
	if h.aliased || h.sunk {
		return false
	}
	if h.floated {
		return true
	}
	if !s.decl.UnknownLength &&
		s.decl.FloatFootprintBytes() > int64(c.e.cfg.L2.SizeBytes) {
		h.floated = true
		return true
	}
	if h.requests >= uint64(c.e.cfg.FloatMinRequests) &&
		h.reuses*4 < h.requests &&
		float64(h.misses) >= c.e.cfg.FloatMissRatio*float64(h.requests) {
		h.floated = true
		return true
	}
	return false
}

// applyFloatPolicy decides which streams float at configure time.
func (c *seCore) applyFloatPolicy(affines []*coreStream, leaders map[*coreStream]*coreStream) {
	for _, s := range affines {
		leader := leaders[s]
		if leader != nil && leader != s {
			continue // decided by the leader below
		}
		if !c.qualifies(s) {
			continue
		}
		c.floatStream(s, 0)
	}
}

// floatStream offloads a stream (and its indirect children, when enabled)
// starting at element startElem. It allocates the SE_L2 buffer share and
// sends the configuration packet toward the first element's home bank.
func (c *seCore) floatStream(s *coreStream, startElem int64) {
	s.kind = csFloatLeader
	s.floatFrom = startElem
	c.e.sanTrace(c.tile, "secore", "float", sanStreamKey(c.tile, s.decl.ID), startElem, int64(len(s.indirects)))
	if c.e.tr != nil {
		c.e.tr.StreamFloat(uint64(c.e.lay.Eng(c.tile).Now()), c.tile, s.decl.ID, startElem,
			s.decl.Affine.Base, len(s.indirects))
	}
	var children []stream.Decl
	if c.e.cfg.FloatIndirect {
		for _, ind := range s.indirects {
			ind.kind = csIndirectFloat
			children = append(children, ind.decl)
		}
	}
	c.e.lay.St(c.tile).StreamsFloated++
	s.group = c.e.l2s[c.tile].configureStream(s, startElem, children)

	// Switch trailing offset-group members over to buffer service, routing
	// any requests parked behind their (now stopped) FIFOs by address.
	if s.leader == s {
		for _, sid := range sortedKeys(c.streams) {
			m := c.streams[sid]
			if m.leader != s || m == s || m.kind != csCached {
				continue
			}
			m.kind = csFloatServed
			for _, e := range sortedKeys(m.demand) {
				cbs := m.demand[e]
				delete(m.demand, e)
				addr := m.decl.Affine.AddrAt(e)
				for _, cb := range cbs {
					// Parked demand still owes its FIFO read on service.
					wcb := c.fifoWrap(cb)
					if !c.e.l2s[c.tile].requestByAddr(s.group, addr, wcb) {
						c.fallback(addr, m.decl, wcb)
					}
				}
			}
		}
	}

	// Affine-only floating (SF-Aff): indirect children stay at the core and
	// are issued as their index lines land in the SE_L2 buffer.
	if len(children) == 0 && len(s.indirects) > 0 {
		c.e.l2s[c.tile].setOnArrive(s.group, func(elemLo, elemHi int64) {
			for _, ind := range s.indirects {
				if ind.kind != csIndirectCached {
					continue
				}
				for e := elemLo; e <= elemHi; e++ {
					c.issueIndirect(ind, e)
				}
			}
		})
	}

	// Mid-phase float: requests parked beyond the cached prefetch frontier
	// will never be walked by the (now stopped) SEcore FIFO — reroute them
	// through the floated path.
	for _, e := range sortedKeys(s.demand) {
		if e < startElem {
			continue
		}
		cbs := s.demand[e]
		delete(s.demand, e)
		for _, cb := range cbs {
			// Parked demand still owes its FIFO read on service.
			wcb := c.fifoWrap(cb)
			if !c.e.l2s[c.tile].requestLeader(s.group, e, wcb) {
				c.fallback(s.decl.Affine.AddrAt(e), s.decl, wcb)
			}
		}
	}
	for _, ind := range s.indirects {
		if ind.kind != csIndirectFloat {
			continue
		}
		for _, e := range sortedKeys(ind.elems) {
			el := ind.elems[e]
			if e < startElem || el.issued {
				continue
			}
			delete(ind.elems, e)
			for _, cb := range el.waiters {
				if !c.e.l2s[c.tile].requestIndirect(s.group, ind.decl.ID, e, cb) {
					v := c.e.bk.ReadU32(s.decl.Affine.AddrAt(e))
					c.fallback(ind.decl.Indirect.AddrFor(uint64(v)), ind.decl, cb)
				}
			}
		}
	}
}

// issueLines advances a cached stream's FIFO prefetch frontier (SS mode).
func (c *seCore) issueLines(s *coreStream) {
	for s.held < s.fifoCap {
		if s.floatFrom >= 0 && s.walker.nextElem >= s.floatFrom {
			return // remainder served by the floated path
		}
		ref, ok := s.walker.next()
		if !ok {
			return
		}
		s.held++
		line := &fifoLine{ref: ref}
		s.lines[ref.seq] = line
		seq := ref.seq
		for e := ref.elemLo; e <= ref.elemHi; e++ {
			s.elemSeq[e] = ref.seq
			for _, w := range s.demand[e] {
				w := w
				line.waiters = append(line.waiters, func(now event.Cycle) {
					c.serveCached(s, seq, w)
				})
			}
			delete(s.demand, e)
		}
		s.hist.requests++
		issuedAt := c.e.lay.Eng(c.tile).Now()
		c.e.sys.Access(c.tile, ref.addr, cache.StreamRead,
			cache.Meta{PC: s.decl.PC, StreamID: s.decl.ID},
			func(now event.Cycle) { c.lineArrived(s, seq, now-issuedAt) })
	}
	c.sanCheckFIFO(s)
}

// lineArrived completes a cached stream line: wakes element waiters, feeds
// indirect children, updates the history table, and re-evaluates the float
// policy mid-phase.
func (c *seCore) lineArrived(s *coreStream, seq int64, latency event.Cycle) {
	line := s.lines[seq]
	if line == nil {
		return // phase ended or stream sunk
	}
	line.arrived = true
	if latency >= c.missLatency() {
		s.hist.misses++
	}
	for _, w := range line.waiters {
		w(c.e.lay.Eng(c.tile).Now())
	}
	line.waiters = nil
	for _, ind := range s.indirects {
		if ind.kind == csIndirectCached {
			for e := line.ref.elemLo; e <= line.ref.elemHi; e++ {
				c.issueIndirect(ind, e)
			}
		}
	}
	// Mid-phase float: a stream that keeps missing with no reuse floats
	// from its current frontier (§IV-D). Trailing offset-group members
	// never float on their own; they switch over when their leader does.
	if c.e.floating() && s.kind == csCached && s.floatFrom < 0 &&
		(s.leader == nil || s.leader == s) && c.qualifies(s) {
		c.floatStream(s, s.walker.nextElem)
	}
}

// issueIndirect launches the dependent access for one indirect element once
// its index value is available (SS and SF-Aff modes).
func (c *seCore) issueIndirect(s *coreStream, e int64) {
	el := s.elems[e]
	if el == nil {
		el = &indElem{}
		s.elems[e] = el
	}
	if el.issued {
		return
	}
	el.issued = true
	idx := c.e.bk.ReadU32(s.base.decl.Affine.AddrAt(e))
	addr := s.decl.Indirect.AddrFor(uint64(idx))
	s.hist.requests++
	issuedAt := c.e.lay.Eng(c.tile).Now()
	c.e.sys.Access(c.tile, addr, cache.StreamRead,
		cache.Meta{PC: s.decl.PC, StreamID: s.decl.ID},
		func(now event.Cycle) {
			if now-issuedAt >= c.missLatency() {
				s.hist.misses++
			}
			el.arrived = true
			for _, w := range el.waiters {
				w(now)
			}
			el.waiters = nil
		})
}

// requestElement implements the first use of a stream element (§III).
func (c *seCore) requestElement(sid int, idx int64, cb func(event.Cycle)) {
	s := c.streams[sid]
	if idx > s.lastReq {
		s.lastReq = idx
	}
	if c.e.san != nil {
		s.sanReq++
		inner := cb
		cb = func(now event.Cycle) {
			s.sanServed++
			inner(now)
		}
	}
	if c.pendingDbg != nil {
		c.pendingDbg[sid]++
		inner := cb
		cb = func(now event.Cycle) {
			c.pendingDbg[sid]--
			inner(now)
		}
	}
	switch s.kind {
	case csCached:
		c.requestCached(s, idx, cb)
	case csFloatLeader:
		if idx < s.floatFrom {
			c.requestCached(s, idx, cb)
			return
		}
		// A floated stream's requests still check the private tags (§IV-A);
		// repeated hits mean the float was a mistake and the stream sinks
		// (§IV-D).
		addr := s.decl.Affine.AddrAt(idx)
		if c.e.sys.PrivateHas(c.tile, addr) {
			s.hitStreak++
			c.e.sys.Access(c.tile, addr, cache.Read,
				cache.Meta{PC: s.decl.PC, StreamID: s.decl.ID}, cb)
			if s.hitStreak >= c.e.cfg.SinkHitThreshold {
				c.sinkStream(s, false)
			}
			return
		}
		s.hitStreak = 0
		if !c.e.l2s[c.tile].requestLeader(s.group, idx, cb) {
			c.fallback(addr, s.decl, cb)
		}
	case csFloatServed:
		addr := s.decl.Affine.AddrAt(idx)
		if !c.e.l2s[c.tile].requestByAddr(s.leader.group, addr, cb) {
			c.fallback(addr, s.decl, cb)
		}
	case csIndirectCached:
		el := s.elems[idx]
		if el == nil {
			// The base line's arrival hook has not fired (sink gap, SF-Aff
			// prefix, or base served elsewhere): issue on demand — the
			// index value is architecturally available at first use.
			c.issueIndirect(s, idx)
			el = s.elems[idx]
		}
		if el.arrived {
			c.fifoServe(cb)
			return
		}
		el.waiters = append(el.waiters, cb)
	case csIndirectFloat:
		if idx < s.base.floatFrom {
			// Prefix handled by the cached path of the base stream.
			c.issueIndirect(s, idx)
			el := s.elems[idx]
			if el.arrived {
				c.fifoServe(cb)
			} else {
				el.waiters = append(el.waiters, cb)
			}
			return
		}
		if !c.e.l2s[c.tile].requestIndirect(s.base.group, s.decl.ID, idx, cb) {
			idxVal := c.e.bk.ReadU32(s.base.decl.Affine.AddrAt(idx))
			c.fallback(s.decl.Indirect.AddrFor(uint64(idxVal)), s.decl, cb)
		}
	case csSunk:
		c.fallback(c.sunkAddr(s, idx), s.decl, cb)
	}
}

// sunkAddr resolves an element address for a sunk stream.
func (c *seCore) sunkAddr(s *coreStream, idx int64) uint64 {
	if s.decl.IsIndirect() {
		v := c.e.bk.ReadU32(s.base.decl.Affine.AddrAt(idx))
		return s.decl.Indirect.AddrFor(uint64(v))
	}
	return s.decl.Affine.AddrAt(idx)
}

// fifoServe charges one SEcore FIFO read and hands the element to the
// pipeline on the next cycle (the FIFO read-port latency). Raw element
// callbacks travel unwrapped through the FIFO structures; this is the single
// point where the FIFO access is accounted.
func (c *seCore) fifoServe(cb func(event.Cycle)) {
	c.e.lay.St(c.tile).SEFIFOAccesses++
	c.e.lay.Eng(c.tile).Schedule(1, cb)
}

// fifoWrap defers fifoServe until the wrapped callback's data is ready: used
// where a request leaves the FIFO structures (sink-gap fallbacks, demand
// rerouted to the floated path) but must still pay the FIFO read on return.
func (c *seCore) fifoWrap(cb func(event.Cycle)) func(event.Cycle) {
	return func(event.Cycle) { c.fifoServe(cb) }
}

// requestCached serves an element from the SEcore FIFO.
func (c *seCore) requestCached(s *coreStream, idx int64, cb func(event.Cycle)) {
	if seq, ok := s.elemSeq[idx]; ok {
		line := s.lines[seq]
		if line.arrived {
			c.serveCached(s, seq, cb)
			return
		}
		line.waiters = append(line.waiters, func(now event.Cycle) {
			c.serveCached(s, seq, cb)
		})
		return
	}
	if idx < s.cachedStart {
		// A gap left by a sink: serve with a plain demand load.
		c.fallback(s.decl.Affine.AddrAt(idx), s.decl, c.fifoWrap(cb))
		return
	}
	// Beyond the prefetch frontier: park until the walker reaches it.
	s.demand[idx] = append(s.demand[idx], cb)
}

// serveCached hands one element to the pipeline and frees the FIFO slot
// once the whole line has been consumed.
func (c *seCore) serveCached(s *coreStream, seq int64, cb func(event.Cycle)) {
	c.fifoServe(cb)
	line := s.lines[seq]
	if line == nil {
		return
	}
	line.served++
	if int64(line.served) == line.ref.elemHi-line.ref.elemLo+1 {
		for e := line.ref.elemLo; e <= line.ref.elemHi; e++ {
			delete(s.elemSeq, e)
		}
		delete(s.lines, seq)
		s.held--
		c.issueLines(s)
	}
}

// fallback serves a stream element with a plain demand load (missing SE_L2
// buffer data, sunk streams, group prefixes).
func (c *seCore) fallback(addr uint64, d stream.Decl, cb func(event.Cycle)) {
	c.e.lay.St(c.tile).StreamFallbacks++
	c.e.sys.Access(c.tile, addr, cache.Read, cache.Meta{PC: d.PC, StreamID: d.ID}, cb)
}

// releaseElement implements stream_step retirement.
func (c *seCore) releaseElement(sid int, idx int64) {
	s := c.streams[sid]
	if c.e.san != nil {
		s.sanRel++
	}
	switch s.kind {
	case csCached:
		c.releaseCached(s, idx)
	case csFloatLeader:
		if idx < s.floatFrom {
			c.releaseCached(s, idx)
			return
		}
		c.e.l2s[c.tile].releaseLeader(s.group, idx)
	case csIndirectCached:
		delete(s.elems, idx)
	case csIndirectFloat:
		if idx < s.base.floatFrom {
			delete(s.elems, idx)
			return
		}
		c.e.l2s[c.tile].releaseIndirect(s.base.group, s.decl.ID, idx)
	}
}

func (c *seCore) releaseCached(s *coreStream, idx int64) {
	// FIFO slots are freed at first-use service (serveCached); stream_step
	// retirement needs no further bookkeeping here.
	_ = s
	_ = idx
}

// noteReuse records a private-cache reuse of a stream-brought line (the tag
// extension of §IV-D notifying the history table).
func (c *seCore) noteReuse(sid int) {
	if s, ok := c.streams[sid]; ok {
		s.hist.reuses++
	}
}

// sinkStream undoes a float mid-phase (§IV-D): the stream resumes cached
// SEcore service from the grant frontier and starts caching its data again.
// aliased marks the cause (an aliasing store vs. private-cache hits).
func (c *seCore) sinkStream(s *coreStream, aliased bool) {
	if s.kind != csFloatLeader {
		return
	}
	var al int64
	if aliased {
		al = 1
	}
	c.e.sanTrace(c.tile, "secore", "sink", sanStreamKey(c.tile, s.decl.ID), s.lastReq, al)
	if c.e.tr != nil {
		c.e.tr.StreamSink(uint64(c.e.lay.Eng(c.tile).Now()), c.tile, s.decl.ID, aliased, s.lastReq)
	}
	c.e.lay.St(c.tile).StreamsSunk++
	s.hist.floated = false
	s.hist.sunk = true
	if aliased {
		s.hist.aliased = true
	}
	// Resume past both the grant frontier (nothing beyond it exists in the
	// buffer) and the core's own consumption point (elements beyond the
	// frontier may have been served by private-cache hits and will never be
	// requested or released again).
	resume := s.group.walker.nextElem
	if s.lastReq+1 > resume {
		resume = s.lastReq + 1
	}
	c.e.l2s[c.tile].terminate(s.group, true)
	s.kind = csCached
	s.cachedStart = resume
	s.floatFrom = -1
	s.group = nil
	s.walker = newLineWalker(*s.decl.Affine)
	for s.walker.nextElem < resume {
		if _, ok := s.walker.next(); !ok {
			break
		}
	}
	for _, ind := range s.indirects {
		if ind.kind == csIndirectFloat {
			ind.kind = csIndirectCached
		}
	}
	for m := range c.streams {
		ms := c.streams[m]
		if ms.kind == csFloatServed && ms.leader == s {
			ms.kind = csSunk
		}
	}
	c.issueLines(s)
}

// endPhase implements stream_end for every configured stream.
func (c *seCore) endPhase() {
	for _, sid := range sortedKeys(c.streams) {
		s := c.streams[sid]
		if s.kind == csFloatLeader && s.group != nil {
			c.e.l2s[c.tile].terminate(s.group, false)
		}
		c.e.sanTrace(c.tile, "secore", "end", sanStreamKey(c.tile, s.decl.ID), s.sanReq, s.sanRel)
		if c.e.tr != nil {
			c.e.tr.StreamEnd(uint64(c.e.lay.Eng(c.tile).Now()), c.tile, s.decl.ID)
		}
		c.sanCheckElements(s)
	}
	c.streams = nil
	c.phase = nil
}
