package sample

import (
	"streamfloat/internal/config"
	score "streamfloat/internal/core"
	"streamfloat/internal/stream"
	"streamfloat/internal/system"
)

// warmMachine functionally fast-forwards the machine to the start of the
// detailed window: for every core and phase it replays the memory
// footprint of the phase's entire skipped prefix (every unsampled
// iteration preceding the detailed warmup, SMARTS-style) through the
// warm cache API (cache.WarmShared/WarmPrivate),
// advancing tag, MESI and replacement state without events, traffic or
// statistics. Streams the float policy would offload warm only their home
// L3 banks — floated reads never install private copies — while everything
// else warms the full private path. Replay order is deterministic: phases
// ascending, then tiles ascending, then iterations ascending.
func warmMachine(m *system.Machine, pl *Plan) {
	numPhases := 0
	if len(pl.progs) > 0 {
		numPhases = len(pl.progs[0].Phases)
	}
	for phase := 0; phase < numPhases; phase++ {
		for core := range pl.progs {
			warmPhaseWindow(m, pl, core, phase)
		}
	}
}

func warmPhaseWindow(m *system.Machine, pl *Plan, core, phase int) {
	ph := &pl.progs[core].Phases[phase]
	flo, wlo := pl.funcWarmWindow(core, phase)
	if flo >= wlo {
		return
	}
	// A load's placement is fixed for the phase, so decide it once, not
	// per replayed access.
	type warmLoad struct {
		d      *stream.Decl
		base   *stream.Decl // indirect loads: the affine stream holding the index
		shared bool         // warm the home bank only (a floated stream)
	}
	// Floated streams are the ones SEcore's configure-time float test
	// (§IV-D) offloads. The history-driven late float is intentionally not
	// modeled: warmup only needs the steady-state placement of each
	// stream's data.
	cfg := &m.Cfg
	sf := cfg.Stream == config.StreamSF
	loads := make([]warmLoad, 0, len(ph.Loads))
	for i := range ph.Loads {
		d := &ph.Loads[i]
		switch {
		case d.Affine != nil:
			loads = append(loads, warmLoad{d: d, shared: sf && score.FloatsByFootprint(cfg, d)})
		case d.Indirect != nil:
			base := declByID(ph.Loads, d.BaseOn)
			if base == nil || base.Affine == nil {
				continue
			}
			loads = append(loads, warmLoad{d: d, base: base, shared: sf && cfg.FloatIndirect && score.FloatsByFootprint(cfg, base)})
		}
	}
	for i := flo; i < wlo; i++ {
		for _, l := range loads {
			var addr uint64
			if l.base == nil {
				addr = l.d.Affine.AddrAt(i)
			} else {
				idx := m.Backing.ReadU32(l.base.Affine.AddrAt(i))
				addr = l.d.Indirect.AddrFor(uint64(idx))
			}
			if l.shared {
				m.Caches.WarmShared(addr)
			} else {
				m.Caches.WarmPrivate(core, addr, false)
			}
		}
		if ph.SeqLoads != nil {
			for _, addr := range ph.SeqLoads(i) {
				m.Caches.WarmPrivate(core, addr, false)
			}
		}
		for k := range ph.Stores {
			m.Caches.WarmPrivate(core, ph.Stores[k].Affine.AddrAt(i), true)
		}
	}
}

// declByID returns the load declaration with the given stream id, or nil.
func declByID(loads []stream.Decl, id int) *stream.Decl {
	for i := range loads {
		if loads[i].ID == id {
			return &loads[i]
		}
	}
	return nil
}
