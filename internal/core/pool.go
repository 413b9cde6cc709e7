package core

import (
	"streamfloat/internal/event"
	"streamfloat/internal/linetab"
)

// The stream engines' per-line and per-element state lives in records that
// are recycled through per-context freelists, as the cache's op records are:
// a get names the tile whose event is running, so does a put, and a record
// may migrate between lists. Records that a callee only reaches through a
// func value (cache.System.Access's done, FloatReadAuto's deliver) carry that
// func bound to themselves when first allocated, so handing it over
// allocates nothing. A put resets everything else.

// opLists is the set of freelists one execution context (one shard) owns.
// Barrier ops also put to them: they run with every shard quiescent.
type opLists struct {
	fifo   event.Freelist[fifoLine]
	ind    event.Freelist[indElem]
	buf    event.Freelist[bufLine]
	indSt  event.Freelist[indState]
	req    event.Freelist[l3Req]
	indReq event.Freelist[indReq]
	credit event.Freelist[creditOp]
	wrap   event.Freelist[fifoWrapOp]
	wait   event.Freelist[waitList]

	keys []uint64 // scratch for ordered table drains (see sorted)
}

// sorted returns a table's keys in ascending order (keys is a Table's Keys
// method) in the context's scratch slice, valid until the next call from
// the same context. Drains that schedule events iterate this, so their
// order never depends on the hash layout; none of them nests another.
func (l *opLists) sorted(keys func([]uint64) []uint64) []uint64 {
	l.keys = keys(l.keys[:0])
	return l.keys
}

// lists returns the freelists of tile's execution context.
func (e *Engines) lists(tile int) *opLists { return &e.ops[e.lay.Index(tile)] }

// waitList holds the element callbacks parked under one table key (SEcore
// demand beyond the walk frontier, SE_L2 requests ahead of the grant); its
// slice's capacity is kept across puts.
type waitList struct{ fns []func(event.Cycle) }

// park appends cb to key's list in t, taking a list for a new key.
func (l *opLists) park(t *linetab.Table[*waitList], key uint64, cb func(event.Cycle)) {
	p, _ := t.Ref(key)
	if *p == nil {
		if *p = l.wait.Get(); *p == nil {
			*p = new(waitList)
		}
	}
	(*p).fns = append((*p).fns, cb)
}

// putWaitList returns a list that has left its table.
func (l *opLists) putWaitList(w *waitList) {
	clear(w.fns)
	w.fns = w.fns[:0]
	l.wait.Put(w)
}
