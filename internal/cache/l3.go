package cache

import (
	"streamfloat/internal/event"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
	"streamfloat/internal/stream"
	"streamfloat/internal/trace"
)

// bankHandle services a GetS (m.excl false) or GetX (true) that has arrived
// at its L3 bank: the lookup runs after the bank's access latency, and the
// reply carries the granted MESI state to the requesting tile.
//
// Directory state is updated immediately and messages model the traffic and
// latency; per-line transient races are thereby serialized by the event
// loop, which preserves message counts — the quantity the paper measures.
func (s *System) bankHandle(m *missOp) {
	s.lay.Eng(m.bank).ScheduleCall(event.Cycle(s.cfg.L3.LatCycles), runBankLookup, event.Ref{Obj: m})
}

func runBankLookup(now event.Cycle, ref event.Ref) {
	m := ref.Obj.(*missOp)
	m.s.bankLookup(m, now)
}

// bankLookup is the L3 tag lookup of a request: a hit applies the directory
// transition, a miss first fills the line from memory.
func (s *System) bankLookup(m *missOp, now event.Cycle) {
	bank, la, p := m.bank, m.la, m.meta.Probe
	st := s.lay.St(bank)
	st.L3Requests[m.l3kind]++
	l := s.banks[bank].lookup(la)
	if l == nil {
		st.L3Misses++
		if s.tr != nil {
			s.tr.Emit(uint64(now), bank, trace.KindL3Miss, la, int64(m.tile), int64(m.l3kind))
		}
		if p != nil {
			p.DRAMStart = uint64(now)
			p.Level = trace.LevelDRAM
		}
		s.dramFill(bank, la, m.afterFill)
		return
	}
	st.L3Hits++
	if p != nil && p.Level == trace.LevelMerged {
		p.Level = trace.LevelL3
	}
	s.banks[bank].touch(l)
	s.bankHitChecked(m, l)
}

// filled continues a request whose line the bank had to fetch from memory
// (bound as m.afterFill).
func (m *missOp) filled() {
	s := m.s
	if p := m.meta.Probe; p != nil {
		p.DRAMEnd = uint64(s.lay.Eng(m.bank).Now())
	}
	// Re-lookup: the fill installed the line.
	if fresh := s.banks[m.bank].lookup(m.la); fresh != nil {
		s.bankHitChecked(m, fresh)
		return
	}
	// The freshly installed line was itself evicted by a racing fill;
	// respond as if granting E from memory.
	m.granted = grantFor(m.excl, true)
	s.mesh.SendCall(m.bank, m.tile, stats.ClassData, stream.LineBytes, runMissReply, event.Ref{Obj: m})
}

// runInvAck sends the invalidation acknowledgement for a remote-sharer
// drop: fired at the inv's arrival, so the ack is injected from the acking
// tile's own execution context. Ref carries A=ackingTile, B=bank.
func runInvAck(_ event.Cycle, ref event.Ref) {
	s := ref.Obj.(*System)
	s.mesh.SendCall(int(ref.A), int(ref.B), stats.ClassCtrlCoh, 0, runNopDeliver, event.Ref{})
}

// runNopDeliver is a delivery callback for pure-traffic messages.
func runNopDeliver(event.Cycle, event.Ref) {}

func grantFor(excl, exclusiveOK bool) state {
	if excl {
		return stModified
	}
	if exclusiveOK {
		return stExclusive
	}
	return stShared
}

// bankHit applies the directory transition for a request hitting (or just
// filled into) way w of the bank, and sends the reply that will land as
// runMissReply.
func (s *System) bankHit(m *missOp, w int) {
	bank, la, reqTile := m.bank, m.la, m.tile
	arr := s.banks[bank]
	owner := int(arr.owner[w])
	reqBit := uint64(1) << uint(reqTile)

	if m.excl {
		m.granted = stModified
		upgrade := arr.sharers[w]&reqBit != 0
		// Invalidate all other sharers (inv + ack pairs). Remote copies on
		// other shards are dropped at the quantum barrier.
		for t := 0; t < s.ntiles; t++ {
			if t == reqTile || arr.sharers[w]&(1<<uint(t)) == 0 {
				continue
			}
			s.dropPrivate(bank, t, la)
			// The ack injection belongs to tile t's shard — issuing it here
			// would touch t's engine and message pools from the bank's
			// execution context. Ride the invalidation instead: the ack
			// departs when the inv arrives at t.
			s.mesh.SendCall(bank, t, stats.ClassCtrlCoh, 0, runInvAck,
				event.Ref{Obj: s, A: int64(t), B: int64(bank)})
		}
		if owner >= 0 && owner != reqTile {
			// Owner forwards the (possibly dirty) data to the requester.
			m.owner = owner
			s.ownerForward(m)
		} else if upgrade {
			// Requester already has the data: ownership ack only.
			s.mesh.SendCall(bank, reqTile, stats.ClassCtrlCoh, 0, runMissReply, event.Ref{Obj: m})
		} else {
			s.mesh.SendCall(bank, reqTile, stats.ClassData, stream.LineBytes, runMissReply, event.Ref{Obj: m})
		}
		arr.sharers[w] = 0
		arr.owner[w] = int16(reqTile)
		return
	}

	// GetS.
	if owner >= 0 && owner != reqTile {
		// Forward from the exclusive/modified owner; owner downgrades to S
		// and writes back if dirty.
		m.granted, m.owner = stShared, owner
		s.ownerForward(m)
		arr.owner[w] = noOwner
		arr.sharers[w] |= (1 << uint(owner)) | reqBit
		return
	}
	exclusiveOK := arr.sharers[w] == 0 && owner < 0
	if exclusiveOK {
		arr.owner[w] = int16(reqTile)
	} else {
		arr.sharers[w] |= reqBit
	}
	m.granted = grantFor(false, exclusiveOK)
	s.mesh.SendCall(bank, reqTile, stats.ClassData, stream.LineBytes, runMissReply, event.Ref{Obj: m})
}

// ownerForward sends m's forward request to the current owner (m.owner),
// downgrading (GetS) or invalidating (GetX) its private copy; once the
// request has reached the owner and its L2 has been accessed, the owner
// sends the data to the requester. A dirty copy also writes back to the
// bank.
func (s *System) ownerForward(m *missOp) {
	s.mesh.SendCall(m.bank, m.owner, stats.ClassCtrlCoh, 0, runForwardAtOwner, event.Ref{Obj: m})
}

func runForwardAtOwner(_ event.Cycle, ref event.Ref) {
	m := ref.Obj.(*missOp)
	m.s.lay.Eng(m.owner).ScheduleCall(event.Cycle(m.s.cfg.L2.LatCycles), runForwardData, ref)
}

// runForwardData probes the owner's private copy and forwards the line.
func runForwardData(_ event.Cycle, ref event.Ref) {
	m := ref.Obj.(*missOp)
	s, owner, la := m.s, m.owner, m.la
	if s.probeOwner(m.bank, owner, la, m.excl) {
		s.mesh.Send(owner, m.bank, stats.ClassData, stream.LineBytes, func(event.Cycle) {})
	}
	s.mesh.SendCall(owner, m.tile, stats.ClassData, stream.LineBytes, runMissReply, ref)
}

// probeOwner applies an owner forward to the owner's private copy of la
// (invalidate: drop it; otherwise downgrade it to S) and reports whether the
// copy was dirty, in which case the bank's directory entry is marked dirty
// at the barrier (the bank is another tile's state) and the caller sends the
// writeback.
func (s *System) probeOwner(bank, owner int, la uint64, invalidate bool) bool {
	tc := s.tiles[owner]
	dirty := false
	if l2 := tc.l2.lookup(la); l2 != nil {
		dirty = l2.has(fDirty) || l2.state() == stModified
		if l1 := tc.l1.lookup(la); l1 != nil && l1.has(fDirty) {
			dirty = true
		}
		if invalidate {
			s.invalidatePrivate(owner, la)
		} else {
			l2.setState(stShared)
			l2.set(fDirty, false)
		}
	}
	if dirty {
		op := s.getCoh(owner)
		op.s, op.bank, op.la = s, bank, la
		s.lay.Defer(owner, runBankDirty, op)
	}
	return dirty
}

// invalidatePrivate drops a line from a tile's L1 and L2 (back-invalidation
// or remote invalidation). Call it from the tile's own context or the barrier.
func (s *System) invalidatePrivate(tile int, la uint64) {
	tc := s.tiles[tile]
	if l1 := tc.l1.lookup(la); l1 != nil {
		tc.l1.invalidate(l1)
	}
	if l2 := tc.l2.lookup(la); l2 != nil {
		tc.l2.invalidate(l2)
	}
}

// dropPrivate invalidates a tile's private copy on behalf of a bank, at the
// quantum barrier.
func (s *System) dropPrivate(bank, tile int, la uint64) {
	op := s.getCoh(bank)
	op.s, op.tile, op.la = s, tile, la
	s.lay.Defer(bank, runInvalidate, op)
}

// dramFill fetches la from memory into the bank, evicting an L3 victim
// (with inclusive back-invalidation and dirty writeback), then calls cont.
// Concurrent fills of the same line at the same bank merge into one memory
// access (the bank's fill MSHR).
func (s *System) dramFill(bank int, la uint64, cont func()) {
	p, busy := s.fillMSHR[bank].Ref(la)
	if busy {
		(*p).waiters = append((*p).waiters, cont)
		return
	}
	f := s.getFill(bank)
	f.bank, f.ctrlTile, f.la = bank, s.dram.CtrlTile(s.dram.CtrlFor(la)), la
	f.waiters = append(f.waiters, cont)
	*p = f
	s.mesh.SendCall(bank, f.ctrlTile, stats.ClassCtrlReq, 8, runFillAtCtrl, event.Ref{Obj: f})
}

// runFillAtCtrl is the fill request reaching its memory controller's tile.
func runFillAtCtrl(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*fillOp)
	f.s.dram.Access(f.la, stream.LineBytes, false, f.dramDone)
}

// dataFromDRAM sends the line back to the bank once the device has it (bound
// as f.dramDone).
func (f *fillOp) dataFromDRAM(event.Cycle) {
	f.s.mesh.SendCall(f.ctrlTile, f.bank, stats.ClassData, stream.LineBytes, runFillAtBank, event.Ref{Obj: f})
}

// runFillAtBank installs the arrived line and continues every request that
// merged into the fill.
func runFillAtBank(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*fillOp)
	s := f.s
	s.installL3(f.bank, f.la)
	s.fillMSHR[f.bank].Delete(f.la)
	for _, w := range f.waiters {
		w()
	}
	s.putFill(f.bank, f)
}

// installL3 places la into the bank, handling victim eviction.
func (s *System) installL3(bank int, la uint64) {
	arr := s.banks[bank]
	slot, hit := arr.probe(la)
	if hit {
		return // racing fill already installed it
	}
	if va, ok := arr.addrOf(slot); ok {
		s.evictL3(bank, slot, va)
	}
	arr.insert(slot, la)
}

// evictL3 removes a victim from a bank: inclusive back-invalidation of all
// private copies (invalidation + ack traffic), dirty-owner writeback, and a
// DRAM write if the line is dirty.
func (s *System) evictL3(bank int, victim *line, va uint64) {
	arr := s.banks[bank]
	w := arr.indexOf(victim)
	dirty := victim.has(fDirty)
	s.traceEvict("l3", bank, va, victim, s.lay.Eng(bank).Now())
	if s.tr != nil {
		var a int64
		if dirty {
			a = 1
		}
		s.tr.Emit(uint64(s.lay.Eng(bank).Now()), bank, trace.KindL3Evict, va, a, int64(arr.owner[w]))
	}
	// The owner probe and back-invalidations touch other tiles' private
	// caches — run the whole flush at the quantum barrier.
	op := s.getCoh(bank)
	op.s, op.bank, op.tile, op.la, op.flag, op.bits = s, bank, int(arr.owner[w]), va, dirty, arr.sharers[w]
	s.lay.Defer(bank, runEvictL3Flush, op)
	arr.invalidate(victim)
}

// runEvictL3Flush is the barrier op performing the cross-tile part of a bank
// eviction: dirty-owner writeback probe, inclusive back-invalidation of every
// private copy the directory names, and the DRAM write if the line ends
// dirty.
func runEvictL3Flush(_ event.Cycle, arg any) {
	op := arg.(*cohOp)
	s, bank, owner, sharers, va, dirty := op.s, op.bank, op.tile, op.bits, op.la, op.flag
	s.putCoh(op)
	if owner >= 0 {
		tc := s.tiles[owner]
		if l2 := tc.l2.lookup(va); l2 != nil && (l2.has(fDirty) || l2.state() == stModified) {
			dirty = true
			s.mesh.Send(owner, bank, stats.ClassData, stream.LineBytes, func(event.Cycle) {})
		}
		s.invalidatePrivate(owner, va)
		s.mesh.Send(bank, owner, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
		s.mesh.Send(owner, bank, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
	}
	for t := 0; t < s.ntiles; t++ {
		if sharers&(1<<uint(t)) == 0 {
			continue
		}
		s.invalidatePrivate(t, va)
		s.mesh.Send(bank, t, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
		s.mesh.Send(t, bank, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
	}
	if dirty {
		ctrlTile := s.dram.CtrlTile(s.dram.CtrlFor(va))
		// The controller's queue belongs to its hosting tile's shard; reserve
		// bandwidth when the writeback message arrives there.
		s.mesh.SendCall(bank, ctrlTile, stats.ClassData, stream.LineBytes, runDRAMWriteback, event.Ref{Obj: s, A: int64(va)})
	}
}

// runDRAMWriteback writes an evicted dirty line (Ref.A) back to memory once
// the writeback has reached its controller's tile.
func runDRAMWriteback(_ event.Cycle, ref event.Ref) {
	ref.Obj.(*System).dram.Access(uint64(ref.A), stream.LineBytes, true, func(event.Cycle) {})
}

// floatOp is one GetU stream read from the bank that issues it to its
// deliveries: route to the home bank (issuing bank) -> L3 lookup after the
// bank latency, merging into a DRAM fill on a miss (home bank) -> multicast
// from the bank, or from a forwarding owner (owner). It is taken where the
// read is issued and returned by the context that sends the data. dsts is a
// copy, its capacity kept across puts.
type floatOp struct {
	s       *System
	bank    int // home bank serving the read
	owner   int // forwarding owner, on the owner arm
	la      uint64
	dsts    []int
	l3kind  stats.L3ReqKind
	payload int
	ready   func(event.Cycle)
	deliver func(dst int, now event.Cycle)

	sendFn func() // dramFill continuation, bound once
}

func (s *System) getFloat(tile int) *floatOp {
	f := s.lists[s.lay.Index(tile)].float.Get()
	if f == nil {
		f = new(floatOp)
		f.sendFn = f.send
	}
	f.s = s
	return f
}

// putFloat returns f from code executing in tile's context.
func (s *System) putFloat(tile int, f *floatOp) {
	if f.s == nil {
		s.doublePut("floatOp")
	}
	*f = floatOp{dsts: f.dsts[:0], sendFn: f.sendFn}
	s.lists[s.lay.Index(tile)].float.Put(f)
}

// FloatReadAuto services an SE_L3-issued stream read: a GetU access that
// never updates the sharer vector and responds directly to the requesting
// tile(s) — multicast when a confluence group shares the data. curBank is
// the bank currently running the stream: if the line is homed elsewhere (a
// confluence member catching up after a merge), a request message forwards
// it to the home bank first. payloadBytes is the response payload (a full
// line, or a subline for indirect elements). onBankReady (may be nil) fires
// when the data is available at the home bank (used by the operands table
// to chain indirect accesses); deliver fires once per destination at
// arrival. dsts is copied. Callers on the per-line path pass func values
// bound once, so a read allocates nothing.
func (s *System) FloatReadAuto(curBank int, la uint64, dsts []int, l3kind stats.L3ReqKind, payloadBytes int, onBankReady func(event.Cycle), deliver func(dst int, now event.Cycle)) {
	f := s.newFloat(curBank, la, l3kind, payloadBytes, onBankReady, deliver)
	f.dsts = append(f.dsts, dsts...)
	s.routeFloat(curBank, f)
}

// FloatIndirectRead routes an indirect element request from the bank running
// the stream (fromBank) to the element's home bank, which responds with a
// subline directly to the requesting tile (§IV-B).
func (s *System) FloatIndirectRead(fromBank int, la uint64, dst int, payloadBytes int, deliver func(dst int, now event.Cycle)) {
	f := s.newFloat(fromBank, la, stats.L3FloatIndirect, payloadBytes, nil, deliver)
	f.dsts = append(f.dsts, dst)
	s.routeFloat(fromBank, f)
}

// newFloat takes a floatOp in the issuing tile's context for a read of la
// served by la's home bank.
func (s *System) newFloat(tile int, la uint64, l3kind stats.L3ReqKind, payloadBytes int, onBankReady func(event.Cycle), deliver func(dst int, now event.Cycle)) *floatOp {
	f := s.getFloat(tile)
	f.bank, f.la, f.l3kind, f.payload, f.ready, f.deliver = s.HomeBank(la), la, l3kind, payloadBytes, onBankReady, deliver
	return f
}

// routeFloat starts f at its home bank, sending the request there first when
// the issuing bank is another.
func (s *System) routeFloat(curBank int, f *floatOp) {
	if f.bank == curBank {
		s.startFloat(f)
		return
	}
	s.mesh.SendCall(curBank, f.bank, stats.ClassCtrlReq, 8, runFloatAtHome, event.Ref{Obj: f})
}

func runFloatAtHome(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*floatOp)
	f.s.startFloat(f)
}

// startFloat schedules f's L3 lookup after the bank's access latency.
func (s *System) startFloat(f *floatOp) {
	s.lay.Eng(f.bank).ScheduleCall(event.Cycle(s.cfg.L3.LatCycles), runFloatLookup, event.Ref{Obj: f})
}

func runFloatLookup(now event.Cycle, ref event.Ref) {
	f := ref.Obj.(*floatOp)
	f.s.floatLookup(f, now)
}

// floatLookup is the GetU tag lookup at the home bank.
func (s *System) floatLookup(f *floatOp, now event.Cycle) {
	bank, la := f.bank, f.la
	st := s.lay.St(bank)
	st.L3Requests[f.l3kind]++
	arr := s.banks[bank]
	l := arr.lookup(la)
	if s.chk != nil && l != nil {
		// GetU must never touch the sharer vector or ownership (§IV-A):
		// snapshot the entry and re-check once this handler has applied
		// whatever path it takes. Later demand accesses may legally mutate
		// the entry, so the window is exactly this event.
		w := arr.indexOf(l)
		s.chk.Trace(sanitize.Record{
			Cycle: uint64(now), Tile: f.dsts[0], Comp: "l3dir", Event: "getu",
			Key: la, A: int64(arr.sharers[w]), B: int64(arr.owner[w]),
		})
		defer s.checkGetU(bank, la, w, arr.owner[w], arr.sharers[w])
	}
	if l == nil {
		st.L3Misses++
		if s.tr != nil {
			s.tr.Emit(uint64(now), bank, trace.KindL3Miss, la, int64(f.dsts[0]), int64(f.l3kind))
		}
		s.dramFill(bank, la, f.sendFn)
		return
	}
	st.L3Hits++
	arr.touch(l)
	if o := int(arr.owner[arr.indexOf(l)]); o >= 0 && !containsTile(f.dsts, o) {
		// Another L2 owns the line: it forwards the data without changing
		// its own state (Fig 12c).
		f.owner = o
		s.mesh.SendCall(bank, o, stats.ClassCtrlCoh, 0, runFloatAtOwner, event.Ref{Obj: f})
		return
	}
	f.send()
}

// checkGetU fails the run if a GetU changed the directory entry (way w of
// the bank) it read.
func (s *System) checkGetU(bank int, la uint64, w int, ow int16, sh uint64) {
	arr := s.banks[bank]
	if arr.owner[w] != ow || arr.sharers[w] != sh {
		s.chk.Failf(la, "l3dir[%d]: GetU for line %#x mutated directory state: sharers %#x->%#x, owner %d->%d",
			bank, la, sh, arr.sharers[w], ow, arr.owner[w])
	}
}

// send fires the ready hook and multicasts the data from the bank (bound as
// f.sendFn for the DRAM-fill path).
func (f *floatOp) send() {
	s := f.s
	if f.ready != nil {
		f.ready(s.lay.Eng(f.bank).Now())
	}
	s.mesh.Multicast(f.bank, f.dsts, stats.ClassData, f.payload, f.deliver)
	s.putFloat(f.bank, f)
}

func runFloatAtOwner(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*floatOp)
	f.s.lay.Eng(f.owner).ScheduleCall(event.Cycle(f.s.cfg.L2.LatCycles), runFloatOwnerSend, ref)
}

// runFloatOwnerSend sends the data from the forwarding owner's L2.
func runFloatOwnerSend(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*floatOp)
	s, o := f.s, f.owner
	if f.ready != nil {
		// The ready hook mutates bank-side state (the operands table): the
		// owner copies the index data back so the hook fires in the bank's
		// own execution context.
		s.mesh.Send(o, f.bank, stats.ClassCtrlCoh, 0, f.ready)
	}
	s.mesh.Multicast(o, f.dsts, stats.ClassData, f.payload, f.deliver)
	s.putFloat(o, f)
}

func containsTile(ts []int, t int) bool {
	for _, v := range ts {
		if v == t {
			return true
		}
	}
	return false
}

// PrivateHas reports whether the tile's private caches currently hold the
// line (used by the float/sink policy to detect private-cache hits).
func (s *System) PrivateHas(tile int, addr uint64) bool {
	la := LineAddr(addr)
	tc := s.tiles[tile]
	if tc.l1.lookup(la) != nil {
		return true
	}
	l2 := tc.l2.lookup(la)
	return l2 != nil && l2.state() != stInvalid
}
