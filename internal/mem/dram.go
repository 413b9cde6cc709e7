package mem

import (
	"streamfloat/internal/event"
	"streamfloat/internal/par"
)

// DRAM models the off-chip memory system: a set of controllers (one per
// corner tile), each with a fixed access latency and a bandwidth-limited
// service queue. Aggregate bandwidth is divided evenly among controllers,
// matching the four-corner DDR3 setup of Table III.
type DRAM struct {
	latency  event.Cycle
	perCtrl  float64 // bytes per cycle per controller
	nextFree []float64
	tiles    []int // tile hosting each controller

	// shards[i] drives controller i: the shard of its hosting tile, which
	// owns the controller's queue state (nextFree). Access must only be
	// called from that tile's execution context.
	shards []*par.Shard
}

// NewDRAM builds the memory system over the machine's shard layout.
// bandwidthBpc is the total bytes/cycle across all controllers; tiles lists
// the mesh tiles hosting controllers.
func NewDRAM(lay *par.Layout, latency int, bandwidthBpc float64, tiles []int) *DRAM {
	n := len(tiles)
	if n == 0 {
		panic("mem: DRAM needs at least one controller")
	}
	d := &DRAM{
		latency:  event.Cycle(latency),
		perCtrl:  bandwidthBpc / float64(n),
		nextFree: make([]float64, n),
		tiles:    append([]int(nil), tiles...),
		shards:   make([]*par.Shard, n),
	}
	for i, t := range tiles {
		d.shards[i] = lay.Shard(t)
	}
	return d
}

// CtrlFor picks the controller servicing addr. Lines are spread across
// controllers at 4 KiB granularity to balance load while preserving row
// locality within a page.
func (d *DRAM) CtrlFor(addr uint64) int {
	return int((addr >> pageShift) % uint64(len(d.tiles)))
}

// CtrlTile returns the mesh tile hosting controller i.
func (d *DRAM) CtrlTile(i int) int { return d.tiles[i] }

// Access schedules a read or write of size bytes at addr and invokes done
// when the device completes. The controller serializes requests at its
// bandwidth; latency is added on top of queueing delay.
func (d *DRAM) Access(addr uint64, size int, write bool, done func(event.Cycle)) {
	ctrl := d.CtrlFor(addr)
	eng, st := d.shards[ctrl].Eng, d.shards[ctrl].St
	now := float64(eng.Now())
	start := now
	if d.nextFree[ctrl] > start {
		start = d.nextFree[ctrl]
	}
	d.nextFree[ctrl] = start + float64(size)/d.perCtrl
	if write {
		st.DRAMWrites++
	} else {
		st.DRAMReads++
	}
	finish := event.Cycle(start) + d.latency
	eng.At(finish, done)
}
