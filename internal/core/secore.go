package core

import (
	"sort"

	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/event"
	"streamfloat/internal/linetab"
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

// fifoLine is one line slot of the SEcore stream FIFO. A slot is freed once
// every element has been handed to the pipeline (first use dispatches to the
// LQ and the PEB entry is released, §III-B) — not at retirement, so the
// FIFO's run-ahead depth adds to the core's own window. A freed slot's
// record goes back to its freelist; one freed while its own arrival is
// still waking waiters goes back when that finishes.
type fifoLine struct {
	c        *seCore
	s        *coreStream
	ref      lineRef
	issuedAt event.Cycle
	arrived  bool
	served   int
	waiters  []func(event.Cycle) // element callbacks, served through serveCached on arrival
	draining bool                // lineArrived is waking the waiters
	freed    bool                // the slot was freed while draining

	arriveFn func(event.Cycle) // cache.System.Access completion, bound once
}

func (c *seCore) getLine(s *coreStream, ref lineRef) *fifoLine {
	l := c.e.lists(c.tile).fifo.Get()
	if l == nil {
		l = new(fifoLine)
		l.arriveFn = l.arrive
	}
	l.c, l.s, l.ref = c, s, ref
	return l
}

func (c *seCore) putLine(l *fifoLine) {
	clear(l.waiters)
	*l = fifoLine{waiters: l.waiters[:0], arriveFn: l.arriveFn}
	c.e.lists(c.tile).fifo.Put(l)
}

// indElem tracks one in-flight or buffered indirect element at the core.
// Its record is recycled once the element has both arrived and left the
// stream's table.
type indElem struct {
	c        *seCore
	s        *coreStream
	issuedAt event.Cycle
	arrived  bool
	issued   bool
	dropped  bool // removed from the table before its data arrived
	waiters  []func(event.Cycle)

	doneFn func(event.Cycle) // cache.System.Access completion, bound once
}

func (c *seCore) getElem(s *coreStream) *indElem {
	el := c.e.lists(c.tile).ind.Get()
	if el == nil {
		el = new(indElem)
		el.doneFn = el.done
	}
	el.c, el.s = c, s
	return el
}

func (c *seCore) putElem(el *indElem) {
	clear(el.waiters)
	*el = indElem{waiters: el.waiters[:0], doneFn: el.doneFn}
	c.e.lists(c.tile).ind.Put(el)
}

// dropElem removes element e of indirect stream s from its table.
func (c *seCore) dropElem(s *coreStream, e int64) {
	el, ok := s.elems.Delete(uint64(e))
	if !ok {
		return
	}
	if el.arrived {
		c.putElem(el)
	} else {
		el.dropped = true
	}
}

// coreStream is the SEcore state of one configured stream. Only an affine
// stream that floats on its own moves through the lifecycle: an offset-group
// member is served the way its leader is (its FIFO while the leader is at the
// core, the leader's buffer while it floats, demand loads once it sank), and
// an indirect stream floats with its base when FloatIndirect is on.
type coreStream struct {
	lifeRec
	decl stream.Decl
	hist *histEntry

	// Cached (SS) affine state.
	walker  lineWalker
	fifoCap int
	held    int
	lines   linetab.Table[*fifoLine] // by line seq
	elemSeq linetab.Table[int64]     // element -> line seq
	demand  linetab.Table[*waitList] // by element: waiters beyond the walk frontier

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
	elems     linetab.Table[*indElem] // by element
	indirects []*coreStream           // children of an affine stream

	// Sanitizer element-conservation books (only maintained with a
	// checker attached): requests issued, requests served, retirements.
	sanReq, sanServed, sanRel int64
}

// seCore is the per-tile core stream engine.
type seCore struct {
	e     *Engines
	tile  int
	phase *workload.Phase
	// streams holds the phase's configured streams in ascending id order;
	// a phase has at most a dozen, so lookup scans.
	streams []*coreStream
	hist    map[uint32]*histEntry // by stream PC; touched at configuration only
}

// streamOf returns the configured stream with id sid, or nil.
func (c *seCore) streamOf(sid int) *coreStream {
	for _, s := range c.streams {
		if s.decl.ID == sid {
			return s
		}
	}
	return nil
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
	c.streams = make([]*coreStream, 0, len(phase.Loads))

	var affines, indirects []*coreStream
	for i := range phase.Loads {
		d := phase.Loads[i]
		s := &coreStream{lifeRec: lifeRec{key: streamKey{tile: c.tile, sid: d.ID}},
			decl: d, hist: c.histFor(d.PC), floatFrom: -1, lastReq: -1}
		c.streams = append(c.streams, s)
		if d.IsIndirect() {
			indirects = append(indirects, s)
		} else {
			s.walker = newLineWalker(*d.Affine)
			affines = append(affines, s)
		}
	}
	sort.SliceStable(c.streams, func(i, j int) bool { return c.streams[i].decl.ID < c.streams[j].decl.ID })
	for _, s := range indirects {
		base := c.streamOf(s.decl.BaseOn)
		s.base = base
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
	per := c.e.fifoBytes / (stream.LineBytes * max(1, len(phase.Loads)))
	if per < 1 {
		per = 1
	}
	for _, s := range affines {
		s.fifoCap = per
		s.lines.Reserve(per)
		s.elemSeq.Reserve(per * elemsPerLine(*s.decl.Affine))
		if s.state == atCore && (s.leader == nil || s.leader.state == atCore) {
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
		start   int64
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
		k := shape{a.Strides, a.Lens, a.ElemSize, a.Start}
		byShape[k] = append(byShape[k], s)
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
			if k >= 0 || -k > maxSpan || (-k)%stream.LineBytes != 0 {
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

// FloatsByFootprint is the configure-time half of the §IV-D float test: a
// stream of known length whose footprint exceeds the private L2 floats
// whatever its history says.
func FloatsByFootprint(cfg *config.Config, d *stream.Decl) bool {
	return !d.UnknownLength && d.FloatFootprintBytes() > int64(cfg.L2.SizeBytes)
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
	if FloatsByFootprint(&c.e.cfg, &s.decl) {
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
	s.floatFrom = startElem
	c.e.edge(edFloat, c.tile, startElem, int64(len(s.indirects)), s.decl.Affine.Base, nil, &s.lifeRec)
	var children []stream.Decl
	if c.e.cfg.FloatIndirect {
		for _, ind := range s.indirects {
			children = append(children, ind.decl)
		}
	}
	s.group = c.e.l2s[c.tile].configureStream(s, startElem, children)

	// Switch trailing offset-group members over to buffer service, routing
	// any requests parked behind their (now stopped) FIFOs by address.
	if s.leader == s {
		for _, m := range c.streams {
			if m.leader != s || m == s {
				continue
			}
			for _, k := range c.e.lists(c.tile).sorted(m.demand.Keys) {
				wl, _ := m.demand.Delete(k)
				addr := m.decl.Affine.AddrAt(int64(k))
				for _, cb := range wl.fns {
					// Parked demand still owes its FIFO read on service.
					wcb := c.fifoWrap(cb)
					if !c.e.l2s[c.tile].requestByAddr(s.group, addr, wcb) {
						c.fallback(addr, m.decl, wcb)
					}
				}
				c.e.lists(c.tile).putWaitList(wl)
			}
		}
	}

	// Affine-only floating (SF-Aff): indirect children stay at the core and
	// are issued as their index lines land in the SE_L2 buffer.
	if len(children) == 0 && len(s.indirects) > 0 {
		c.e.l2s[c.tile].setOnArrive(s.group, func(elemLo, elemHi int64) {
			for _, ind := range s.indirects {
				for e := elemLo; e <= elemHi; e++ {
					c.issueIndirect(ind, e)
				}
			}
		})
	}

	// Mid-phase float: requests parked beyond the cached prefetch frontier
	// will never be walked by the (now stopped) SEcore FIFO — reroute them
	// through the floated path.
	for _, k := range c.e.lists(c.tile).sorted(s.demand.Keys) {
		e := int64(k)
		if e < startElem {
			continue
		}
		wl, _ := s.demand.Delete(k)
		for _, cb := range wl.fns {
			// Parked demand still owes its FIFO read on service.
			wcb := c.fifoWrap(cb)
			if !c.e.l2s[c.tile].requestLeader(s.group, e, wcb) {
				c.fallback(s.decl.Affine.AddrAt(e), s.decl, wcb)
			}
		}
		c.e.lists(c.tile).putWaitList(wl)
	}
	for _, ind := range s.indirects {
		if !c.indFloated(ind) {
			continue
		}
		for _, k := range c.e.lists(c.tile).sorted(ind.elems.Keys) {
			e := int64(k)
			el, _ := ind.elems.Get(k)
			if e < startElem || el.issued {
				continue
			}
			ind.elems.Delete(k)
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
		line := c.getLine(s, ref)
		s.lines.Put(uint64(ref.seq), line)
		for e := ref.elemLo; e <= ref.elemHi; e++ {
			s.elemSeq.Put(uint64(e), ref.seq)
			if wl, ok := s.demand.Delete(uint64(e)); ok {
				line.waiters = append(line.waiters, wl.fns...)
				c.e.lists(c.tile).putWaitList(wl)
			}
		}
		s.hist.requests++
		line.issuedAt = c.e.lay.Eng(c.tile).Now()
		c.e.sys.Access(c.tile, ref.addr, cache.StreamRead,
			cache.Meta{PC: s.decl.PC, StreamID: s.decl.ID}, line.arriveFn)
	}
	c.sanCheckFIFO(s)
}

// arrive is the line's cache completion (bound as arriveFn).
func (l *fifoLine) arrive(now event.Cycle) { l.c.lineArrived(l, now-l.issuedAt) }

// lineArrived completes a cached stream line: wakes element waiters, feeds
// indirect children, updates the history table, and re-evaluates the float
// policy mid-phase. A line only leaves its stream's table once every element
// has been served, which needs its data, so the line is always still there.
func (c *seCore) lineArrived(line *fifoLine, latency event.Cycle) {
	s := line.s
	line.arrived = true
	if latency >= c.missLatency() {
		s.hist.misses++
	}
	// Serving the last element frees the slot (serveCached); the record
	// stays live until the waiters have all been woken.
	line.draining = true
	for _, w := range line.waiters {
		c.serveCached(s, line.ref.seq, w)
	}
	lo, hi := line.ref.elemLo, line.ref.elemHi
	if line.freed {
		c.putLine(line)
	} else {
		clear(line.waiters)
		line.waiters = line.waiters[:0]
		line.draining = false
	}
	for _, ind := range s.indirects {
		if !c.indFloated(ind) {
			for e := lo; e <= hi; e++ {
				c.issueIndirect(ind, e)
			}
		}
	}
	// Mid-phase float: a stream that keeps missing with no reuse floats
	// from its current frontier (§IV-D). Trailing offset-group members
	// never float on their own; they switch over when their leader does.
	if c.e.floating() && s.state == atCore && (s.leader == nil || s.leader == s) && c.qualifies(s) {
		c.floatStream(s, s.walker.nextElem)
	}
}

// issueIndirect launches the dependent access for one indirect element once
// its index value is available (SS and SF-Aff modes).
func (c *seCore) issueIndirect(s *coreStream, e int64) {
	p, _ := s.elems.Ref(uint64(e))
	if *p == nil {
		*p = c.getElem(s)
	}
	el := *p
	if el.issued {
		return
	}
	el.issued = true
	idx := c.e.bk.ReadU32(s.base.decl.Affine.AddrAt(e))
	addr := s.decl.Indirect.AddrFor(uint64(idx))
	s.hist.requests++
	el.issuedAt = c.e.lay.Eng(c.tile).Now()
	c.e.sys.Access(c.tile, addr, cache.StreamRead,
		cache.Meta{PC: s.decl.PC, StreamID: s.decl.ID}, el.doneFn)
}

// done is the element's cache completion (bound as doneFn).
func (el *indElem) done(now event.Cycle) {
	c := el.c
	if now-el.issuedAt >= c.missLatency() {
		el.s.hist.misses++
	}
	el.arrived = true
	for _, w := range el.waiters {
		w(now)
	}
	clear(el.waiters)
	el.waiters = el.waiters[:0]
	if el.dropped {
		c.putElem(el)
	}
}

// requestElement implements the first use of a stream element (§III).
func (c *seCore) requestElement(sid int, idx int64, cb func(event.Cycle)) {
	s := c.streamOf(sid)
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
	l2 := c.e.l2s[c.tile]
	switch {
	case s.base != nil && c.indFloated(s) && idx >= s.base.floatFrom:
		if !l2.requestIndirect(s.base.group, s.decl.ID, idx, cb) {
			idxVal := c.e.bk.ReadU32(s.base.decl.Affine.AddrAt(idx))
			c.fallback(s.decl.Indirect.AddrFor(uint64(idxVal)), s.decl, cb)
		}
	case s.base != nil:
		// Issued at the core: once its base line lands, or on demand here
		// when that hook has not fired (sink gap, SF-Aff prefix, base
		// served elsewhere) — the index value is architecturally available
		// at first use.
		c.issueIndirect(s, idx)
		el, _ := s.elems.Get(uint64(idx))
		if el.arrived {
			c.fifoServe(cb)
			return
		}
		el.waiters = append(el.waiters, cb)
	case s.leader != nil && s.leader != s && s.leader.state != atCore:
		// An offset-group member of a floated leader reads the leader's
		// buffer by address; once the leader sank, plain demand loads.
		addr := s.decl.Affine.AddrAt(idx)
		if !l2.requestByAddr(s.leader.group, addr, cb) {
			c.fallback(addr, s.decl, cb)
		}
	case s.state == floated && idx >= s.floatFrom:
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
		if !l2.requestLeader(s.group, idx, cb) {
			c.fallback(addr, s.decl, cb)
		}
	default:
		c.requestCached(s, idx, cb)
	}
}

// indFloated reports whether indirect stream s floats with its base.
func (c *seCore) indFloated(s *coreStream) bool {
	return c.e.cfg.FloatIndirect && s.base.state == floated
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
// The returned func must be called exactly once, in this tile's context.
func (c *seCore) fifoWrap(cb func(event.Cycle)) func(event.Cycle) {
	w := c.e.lists(c.tile).wrap.Get()
	if w == nil {
		w = new(fifoWrapOp)
		w.fn = w.serve
	}
	w.c, w.cb = c, cb
	return w.fn
}

// fifoWrapOp is one fifoWrap: its bound fn serves cb through the FIFO.
type fifoWrapOp struct {
	c  *seCore
	cb func(event.Cycle)
	fn func(event.Cycle) // bound once
}

func (w *fifoWrapOp) serve(event.Cycle) {
	c, cb := w.c, w.cb
	*w = fifoWrapOp{fn: w.fn}
	c.e.lists(c.tile).wrap.Put(w)
	c.fifoServe(cb)
}

// requestCached serves an element from the SEcore FIFO.
func (c *seCore) requestCached(s *coreStream, idx int64, cb func(event.Cycle)) {
	if seq, ok := s.elemSeq.Get(uint64(idx)); ok {
		line, _ := s.lines.Get(uint64(seq))
		if line.arrived {
			c.serveCached(s, seq, cb)
			return
		}
		line.waiters = append(line.waiters, cb) // served on arrival
		return
	}
	if idx < s.cachedStart {
		// A gap left by a sink: serve with a plain demand load.
		c.fallback(s.decl.Affine.AddrAt(idx), s.decl, c.fifoWrap(cb))
		return
	}
	// Beyond the prefetch frontier: park until the walker reaches it.
	c.e.lists(c.tile).park(&s.demand, uint64(idx), cb)
}

// serveCached hands one element to the pipeline and frees the FIFO slot
// once the whole line has been consumed.
func (c *seCore) serveCached(s *coreStream, seq int64, cb func(event.Cycle)) {
	c.fifoServe(cb)
	line, ok := s.lines.Get(uint64(seq))
	if !ok {
		return
	}
	line.served++
	if int64(line.served) == line.ref.elemHi-line.ref.elemLo+1 {
		for e := line.ref.elemLo; e <= line.ref.elemHi; e++ {
			s.elemSeq.Delete(uint64(e))
		}
		s.lines.Delete(uint64(seq))
		s.held--
		if line.draining {
			line.freed = true
		} else {
			c.putLine(line)
		}
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
	s := c.streamOf(sid)
	if c.e.san != nil {
		s.sanRel++
	}
	switch {
	case s.base != nil && c.indFloated(s) && idx >= s.base.floatFrom:
		c.e.l2s[c.tile].releaseIndirect(s.base.group, s.decl.ID, idx)
	case s.base != nil:
		c.dropElem(s, idx)
	case s.state == floated && idx >= s.floatFrom:
		c.e.l2s[c.tile].releaseLeader(s.group, idx)
	}
	// FIFO slots are freed at first-use service (serveCached); stream_step
	// retirement needs no further bookkeeping at the core.
}

// noteReuse records a private-cache reuse of a stream-brought line (the tag
// extension of §IV-D notifying the history table).
func (c *seCore) noteReuse(sid int) {
	if s := c.streamOf(sid); s != nil {
		s.hist.reuses++
	}
}

// sinkStream undoes a float mid-phase (§IV-D): the stream resumes cached
// SEcore service from the grant frontier and starts caching its data again.
// aliased marks the cause (an aliasing store vs. private-cache hits).
func (c *seCore) sinkStream(s *coreStream, aliased bool) {
	if s.state != floated {
		return
	}
	var al int64
	if aliased {
		al = 1
	}
	c.e.edge(edSink, c.tile, s.lastReq, al, 0, nil, &s.lifeRec)
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
	s.cachedStart = resume
	s.floatFrom = -1
	s.group = nil
	s.walker = newLineWalker(*s.decl.Affine)
	for s.walker.nextElem < resume {
		if _, ok := s.walker.next(); !ok {
			break
		}
	}
	c.issueLines(s)
}

// endPhase implements stream_end for every configured stream.
func (c *seCore) endPhase() {
	for _, s := range c.streams {
		if s.state == floated {
			c.e.l2s[c.tile].terminate(s.group, false)
		}
		c.e.edge(edEnd, c.tile, s.sanReq, s.sanRel, 0, nil, &s.lifeRec)
		c.sanCheckElements(s)
	}
	c.streams = nil
	c.phase = nil
}
