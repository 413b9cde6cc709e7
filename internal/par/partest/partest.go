// Package partest is the rig component unit tests run on: one barrier-drained
// shard covering every tile, driven through par.Group like every machine
// system.BuildPrepared assembles.
package partest

import (
	"streamfloat/internal/event"
	"streamfloat/internal/par"
	"streamfloat/internal/stats"
)

// Rig is a one-shard layout plus the group that drives it. Eng and St are the
// shard's engine and counters: what a test schedules on and reads back.
type Rig struct {
	Layout *par.Layout
	Eng    *event.Engine
	St     *stats.Stats

	group par.Group
}

// New builds the rig for a machine of the given tile count. quantum is the
// lookahead of the mesh under test (router + link latency).
func New(tiles int, quantum event.Cycle) *Rig {
	lay := par.NewLayout(tiles, 1)
	sh := lay.Shards[0]
	return &Rig{Layout: lay, Eng: sh.Eng, St: sh.St, group: par.Group{Shards: lay.Shards, Quantum: quantum}}
}

// Run executes quanta until the engine drains, every logged op applied. The
// engine's clock ends on the last window's boundary, not on the last event:
// take completion times from callbacks.
func (r *Rig) Run() { r.RunUntil(nil) }

// RunUntil is Run that also ends at the first quantum boundary where stop
// reports true: the finest grain at which a test can watch a component from
// outside the event stream.
func (r *Rig) RunUntil(stop func() bool) {
	if _, err := r.group.Run(0, stop); err != nil {
		panic(err) // only a helper goroutine's panic is reported this way; one shard has none
	}
}
