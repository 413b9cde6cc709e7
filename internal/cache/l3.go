package cache

import (
	"streamfloat/internal/event"
	"streamfloat/internal/sanitize"
	"streamfloat/internal/stats"
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
	if s.tr != nil {
		s.tr.CacheAccess(bank, 3, l != nil)
	}
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
	s.mesh.SendCall(m.bank, m.tile, stats.ClassData, lineSize, runMissReply, event.Ref{Obj: m})
}

// forward sends the line from the forwarding owner to the requester once the
// owner's L2 has been probed (bound as m.forwardData).
func (m *missOp) forward(event.Cycle) {
	m.s.mesh.SendCall(m.owner, m.tile, stats.ClassData, lineSize, runMissReply, event.Ref{Obj: m})
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
// filled into) the bank, and sends the reply that will land as runMissReply.
func (s *System) bankHit(m *missOp, l *line) {
	bank, la, reqTile := m.bank, m.la, m.tile
	owner := int(l.owner)
	reqBit := uint64(1) << uint(reqTile)

	if m.excl {
		if s.bankWrite != nil {
			s.bankWrite(bank, la, reqTile)
		}
		m.granted = stModified
		upgrade := l.sharers&reqBit != 0
		// Invalidate all other sharers (inv + ack pairs). Remote copies on
		// other shards are dropped at the quantum barrier.
		for t := 0; t < s.cfg.Tiles(); t++ {
			if t == reqTile || l.sharers&(1<<uint(t)) == 0 {
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
			s.ownerForward(bank, owner, la, true, m.forwardData)
		} else if upgrade {
			// Requester already has the data: ownership ack only.
			s.mesh.SendCall(bank, reqTile, stats.ClassCtrlCoh, 0, runMissReply, event.Ref{Obj: m})
		} else {
			s.mesh.SendCall(bank, reqTile, stats.ClassData, lineSize, runMissReply, event.Ref{Obj: m})
		}
		l.sharers = 0
		l.owner = int16(reqTile)
		return
	}

	// GetS.
	if owner >= 0 && owner != reqTile {
		// Forward from the exclusive/modified owner; owner downgrades to S
		// and writes back if dirty.
		m.granted, m.owner = stShared, owner
		s.ownerForward(bank, owner, la, false, m.forwardData)
		l.owner = -1
		l.sharers |= (1 << uint(owner)) | reqBit
		return
	}
	exclusiveOK := l.sharers == 0 && owner < 0
	if exclusiveOK {
		l.owner = int16(reqTile)
	} else {
		l.sharers |= reqBit
	}
	m.granted = grantFor(false, exclusiveOK)
	s.mesh.SendCall(bank, reqTile, stats.ClassData, lineSize, runMissReply, event.Ref{Obj: m})
}

// ownerForward sends the forward request to the current owner, downgrading
// (invalidate=false) or invalidating (invalidate=true) its private copy, and
// invokes then once the forward request has reached the owner and its L2 has
// been accessed. A dirty copy also writes back to the bank.
func (s *System) ownerForward(bank, owner int, la uint64, invalidate bool, then func(event.Cycle)) {
	s.mesh.Send(bank, owner, stats.ClassCtrlCoh, 0, func(event.Cycle) {
		s.lay.Eng(owner).Schedule(event.Cycle(s.cfg.L2.LatCycles), func(now event.Cycle) {
			tc := s.tiles[owner]
			dirty := false
			if l2 := tc.l2.lookup(la); l2 != nil {
				dirty = l2.dirty || l2.state == stModified
				if l1 := tc.l1.lookup(la); l1 != nil && l1.dirty {
					dirty = true
				}
				if invalidate {
					s.invalidatePrivate(owner, la)
				} else {
					l2.state = stShared
					l2.dirty = false
				}
			}
			if dirty {
				// Writeback to the bank so L3 holds the latest data (the
				// directory bit flips at the barrier: the bank is another
				// tile's state).
				op := s.getCoh(owner)
				op.s, op.bank, op.la = s, bank, la
				s.lay.Defer(owner, runBankDirty, op)
				s.mesh.Send(owner, bank, stats.ClassData, lineSize, func(event.Cycle) {})
			}
			then(now)
		})
	})
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
	if f, busy := s.fillMSHR[bank][la]; busy {
		f.waiters = append(f.waiters, cont)
		return
	}
	f := s.getFill(bank)
	f.bank, f.ctrlTile, f.la = bank, s.dram.CtrlTile(s.dram.CtrlFor(la)), la
	f.waiters = append(f.waiters, cont)
	s.fillMSHR[bank][la] = f
	s.mesh.SendCall(bank, f.ctrlTile, stats.ClassCtrlReq, 8, runFillAtCtrl, event.Ref{Obj: f})
}

// runFillAtCtrl is the fill request reaching its memory controller's tile.
func runFillAtCtrl(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*fillOp)
	f.s.dram.Access(f.la, lineSize, false, f.dramDone)
}

// dataFromDRAM sends the line back to the bank once the device has it (bound
// as f.dramDone).
func (f *fillOp) dataFromDRAM(event.Cycle) {
	f.s.mesh.SendCall(f.ctrlTile, f.bank, stats.ClassData, lineSize, runFillAtBank, event.Ref{Obj: f})
}

// runFillAtBank installs the arrived line and continues every request that
// merged into the fill.
func runFillAtBank(_ event.Cycle, ref event.Ref) {
	f := ref.Obj.(*fillOp)
	s := f.s
	s.installL3(f.bank, f.la)
	delete(s.fillMSHR[f.bank], f.la)
	for _, w := range f.waiters {
		w()
	}
	s.putFill(f.bank, f)
}

// installL3 places la into the bank, handling victim eviction.
func (s *System) installL3(bank int, la uint64) {
	arr := s.banks[bank]
	if arr.lookup(la) != nil {
		return // racing fill already installed it
	}
	slot := arr.victim(la)
	if va, ok := arr.addrOf(slot); ok {
		s.evictL3(bank, slot, va)
	}
	arr.insert(slot, la)
}

// evictL3 removes a victim from a bank: inclusive back-invalidation of all
// private copies (invalidation + ack traffic), dirty-owner writeback, and a
// DRAM write if the line is dirty.
func (s *System) evictL3(bank int, victim *line, va uint64) {
	dirty := victim.dirty
	s.traceEvict("l3", bank, va, victim, s.lay.Eng(bank).Now())
	if s.tr != nil {
		var a int64
		if dirty {
			a = 1
		}
		s.tr.Emit(uint64(s.lay.Eng(bank).Now()), bank, trace.KindL3Evict, va, a, int64(victim.owner))
	}
	// The owner probe and back-invalidations touch other tiles' private
	// caches — run the whole flush at the quantum barrier.
	op := s.getCoh(bank)
	op.s, op.bank, op.tile, op.la, op.flag, op.bits = s, bank, int(victim.owner), va, dirty, victim.sharers
	s.lay.Defer(bank, runEvictL3Flush, op)
	s.banks[bank].invalidate(victim)
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
		if l2 := tc.l2.lookup(va); l2 != nil && (l2.dirty || l2.state == stModified) {
			dirty = true
			s.mesh.Send(owner, bank, stats.ClassData, lineSize, func(event.Cycle) {})
		}
		s.invalidatePrivate(owner, va)
		s.mesh.Send(bank, owner, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
		s.mesh.Send(owner, bank, stats.ClassCtrlCoh, 0, func(event.Cycle) {})
	}
	for t := 0; t < s.cfg.Tiles(); t++ {
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
		s.mesh.Send(bank, ctrlTile, stats.ClassData, lineSize, func(event.Cycle) {
			s.dram.Access(va, lineSize, true, func(event.Cycle) {})
		})
	}
}

// FloatRead services an SE_L3-issued stream read at a bank: a GetU access
// that never updates the sharer vector and responds directly to the
// requesting tile(s) — multicast when a confluence group shares the data.
// payloadBytes is the response payload (a full line, or a subline for
// indirect elements). onBankReady (may be nil) fires when the data is
// available at the bank (used by the operands table to chain indirect
// accesses); deliver fires once per destination at arrival.
func (s *System) FloatRead(bank int, la uint64, dsts []int, l3kind stats.L3ReqKind, payloadBytes int, onBankReady func(event.Cycle), deliver func(dst int, now event.Cycle)) {
	st := s.lay.St(bank)
	s.lay.Eng(bank).Schedule(event.Cycle(s.cfg.L3.LatCycles), func(now event.Cycle) {
		st.L3Requests[l3kind]++
		l := s.banks[bank].lookup(la)
		if s.chk != nil && l != nil {
			// GetU must never touch the sharer vector or ownership (§IV-A):
			// snapshot the entry and re-check once this handler has applied
			// whatever path it takes. Later demand accesses may legally
			// mutate the entry, so the window is exactly this event.
			s.chk.Trace(sanitize.Record{
				Cycle: uint64(now), Tile: dsts[0], Comp: "l3dir", Event: "getu",
				Key: la, A: int64(l.sharers), B: int64(l.owner),
			})
			ow, sh := l.owner, l.sharers
			defer func() {
				if l.owner != ow || l.sharers != sh {
					s.chk.Failf(la, "l3dir[%d]: GetU for line %#x mutated directory state: sharers %#x->%#x, owner %d->%d",
						bank, la, sh, l.sharers, ow, l.owner)
				}
			}()
		}
		send := func() {
			if onBankReady != nil {
				onBankReady(s.lay.Eng(bank).Now())
			}
			s.mesh.Multicast(bank, dsts, stats.ClassData, payloadBytes, deliver)
		}
		if s.tr != nil {
			s.tr.CacheAccess(bank, 3, l != nil)
		}
		if l == nil {
			st.L3Misses++
			if s.tr != nil {
				s.tr.Emit(uint64(now), bank, trace.KindL3Miss, la, int64(dsts[0]), int64(l3kind))
			}
			s.dramFill(bank, la, send)
			return
		}
		st.L3Hits++
		s.banks[bank].touch(l)
		if o := int(l.owner); o >= 0 && !containsTile(dsts, o) {
			// Another L2 owns the line: it forwards the data without
			// changing its own state (Fig 12c).
			s.mesh.Send(bank, o, stats.ClassCtrlCoh, 0, func(event.Cycle) {
				s.lay.Eng(o).Schedule(event.Cycle(s.cfg.L2.LatCycles), func(now event.Cycle) {
					if onBankReady != nil {
						// The ready hook mutates bank-side state (the operands
						// table): the owner copies the index data back so the
						// hook fires in the bank's own execution context.
						s.mesh.Send(o, bank, stats.ClassCtrlCoh, 0, onBankReady)
					}
					s.mesh.Multicast(o, dsts, stats.ClassData, payloadBytes, deliver)
				})
			})
			return
		}
		send()
	})
}

// FloatReadAuto issues a stream read from the bank currently running the
// stream: if the line is homed elsewhere (a confluence member catching up
// after a merge), a request message forwards it to the home bank first.
func (s *System) FloatReadAuto(curBank int, la uint64, dsts []int, l3kind stats.L3ReqKind, payloadBytes int, onBankReady func(event.Cycle), deliver func(dst int, now event.Cycle)) {
	home := s.cfg.HomeBank(la)
	if home == curBank {
		s.FloatRead(home, la, dsts, l3kind, payloadBytes, onBankReady, deliver)
		return
	}
	s.mesh.Send(curBank, home, stats.ClassCtrlReq, 8, func(event.Cycle) {
		s.FloatRead(home, la, dsts, l3kind, payloadBytes, onBankReady, deliver)
	})
}

// FloatIndirectRead routes an indirect element request from the bank running
// the stream (fromBank) to the element's home bank, which responds with a
// subline directly to the requesting tile (§IV-B).
func (s *System) FloatIndirectRead(fromBank int, la uint64, dst int, payloadBytes int, deliver func(now event.Cycle)) {
	toBank := s.cfg.HomeBank(la)
	run := func() {
		s.FloatRead(toBank, la, []int{dst}, stats.L3FloatIndirect, payloadBytes, nil,
			func(_ int, now event.Cycle) { deliver(now) })
	}
	if toBank == fromBank {
		run()
		return
	}
	s.mesh.Send(fromBank, toBank, stats.ClassCtrlReq, 8, func(event.Cycle) { run() })
}

func containsTile(ts []int, t int) bool {
	for _, v := range ts {
		if v == t {
			return true
		}
	}
	return false
}

// HomeBank exposes the NUCA mapping for stream engines.
func (s *System) HomeBank(addr uint64) int { return s.cfg.HomeBank(addr) }

// PrivateHas reports whether the tile's private caches currently hold the
// line (used by the float/sink policy to detect private-cache hits).
func (s *System) PrivateHas(tile int, addr uint64) bool {
	la := LineAddr(addr)
	tc := s.tiles[tile]
	if tc.l1.lookup(la) != nil {
		return true
	}
	l2 := tc.l2.lookup(la)
	return l2 != nil && l2.state != stInvalid
}
