// Package core implements the paper's contribution: stream floating. It
// provides the three stream engines of Fig 8 — SEcore (in the pipeline),
// SE_L2 (per-tile stream buffer with credit-based flow control) and SE_L3
// (per-bank configure/issue/migrate/merge units) — together with the
// float/sink policy of §IV-D, the indirect floating and subline transfer of
// §IV-B, and stream confluence with multicast responses of §IV-C.
package core

import "streamfloat/internal/stream"

// lineRef is one cache-line request in a stream's line program: the walker
// groups consecutive elements that fall on the same line, so seq increases
// by one per distinct line in consumption order.
type lineRef struct {
	seq    int64  // line sequence number within the stream
	addr   uint64 // line-aligned address
	elemLo int64  // first element index on this line
	elemHi int64  // last element index (inclusive)
}

// lineWalker lazily converts an affine pattern's element sequence into its
// line-request sequence. SEcore, SE_L2 and SE_L3 all walk the same program,
// which keeps their views of "line seq" consistent by construction.
type lineWalker struct {
	pat      stream.Affine
	total    int64 // total elements
	nextElem int64
	nextSeq  int64
}

func newLineWalker(pat stream.Affine) lineWalker {
	return lineWalker{pat: pat, total: pat.NumElems()}
}

// next returns the next line of the stream, grouping the run of consecutive
// elements that land on it. ok is false when the stream is exhausted.
func (w *lineWalker) next() (lineRef, bool) {
	if w.nextElem >= w.total {
		return lineRef{}, false
	}
	first := w.nextElem
	la := w.pat.AddrAt(first) &^ (stream.LineBytes - 1)
	last := first
	for e := first + 1; e < w.total; e++ {
		if w.pat.AddrAt(e)&^(stream.LineBytes-1) != la {
			break
		}
		last = e
	}
	w.nextElem = last + 1
	ref := lineRef{seq: w.nextSeq, addr: la, elemLo: first, elemHi: last}
	w.nextSeq++
	return ref, true
}

// elemsPerLine is how many of pat's elements can share a line at most, as
// a size hint for tables keyed by element.
func elemsPerLine(pat stream.Affine) int {
	if s := pat.Strides[0]; pat.Lens[0] > 1 && s > 0 && s < stream.LineBytes {
		return int(stream.LineBytes / s)
	}
	return 1
}

// done reports whether the walker has emitted every line.
func (w *lineWalker) done() bool { return w.nextElem >= w.total }
