// Package prefetch implements the hardware prefetchers the paper compares
// against: per-PC stride prefetchers at L1 and L2 (16 streams, 8 and 16
// requests ahead), a Bingo-style spatial footprint prefetcher at L1 (2 kB
// regions, 8 kB pattern history table), and the bulk-prefetch optimization
// that groups up to four same-bank L2 prefetch requests into one message.
package prefetch

import (
	"streamfloat/internal/cache"
	"streamfloat/internal/config"
	"streamfloat/internal/linetab"
	"streamfloat/internal/stream"
)

const (
	strideTableSize = 16
	l1Degree        = 8
	l2Degree        = 16
	regionBytes     = 2048
	linesPerRegion  = regionBytes / stream.LineBytes
	regionTableSize = 64
	phtSize         = 1024 // ~8 kB PHT: 1k entries x 32-bit footprints
	bulkGroup       = 4
)

// strideEntry is one tracked stride stream.
type strideEntry struct {
	pc       uint32
	lastAddr uint64
	stride   int64
	conf     int
	frontier uint64 // highest line address already prefetched
	lru      uint64
}

// strideTable is a small fully-associative per-PC stride detector.
type strideTable struct {
	entries []strideEntry
	tick    uint64

	// Scratch reused by every prefetch burst the table triggers: the lines
	// strideLines computes and the same-bank group issueStrideBulk is
	// filling. Per table, hence per tile: tiles on different shards train
	// concurrently. Both are consumed before the next burst
	// (PrefetchBulkL2 copies its lines).
	lineBuf  []uint64
	groupBuf []uint64
}

func newStrideTable() *strideTable {
	return &strideTable{entries: make([]strideEntry, 0, strideTableSize)}
}

// train updates the table with a demand access and returns (stride, ready,
// entry) where ready means the stream is confident enough to prefetch.
func (t *strideTable) train(pc uint32, addr uint64) (*strideEntry, bool) {
	t.tick++
	var e *strideEntry
	for i := range t.entries {
		if t.entries[i].pc == pc {
			e = &t.entries[i]
			break
		}
	}
	if e == nil {
		if len(t.entries) < strideTableSize {
			t.entries = append(t.entries, strideEntry{pc: pc, lastAddr: addr, lru: t.tick})
			return nil, false
		}
		// Evict LRU.
		victim := 0
		for i := range t.entries {
			if t.entries[i].lru < t.entries[victim].lru {
				victim = i
			}
		}
		t.entries[victim] = strideEntry{pc: pc, lastAddr: addr, lru: t.tick}
		return nil, false
	}
	e.lru = t.tick
	d := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if d == 0 {
		return e, false
	}
	if d == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.stride = d
			e.conf = 1
			e.frontier = 0
		}
	}
	return e, e.conf >= 2 && e.stride != 0
}

// bingoRegion tracks an active spatial region being observed.
type bingoRegion struct {
	base      uint64
	footprint uint32
	trigger   uint32 // pc ^ offset key
	lru       uint64
}

// bingo is the simplified Bingo spatial prefetcher: it records which lines
// of a 2 kB region a program touches, keyed by the triggering (PC, offset)
// event, and replays the footprint when a new region is triggered by the
// same event.
type bingo struct {
	regions []bingoRegion
	pht     linetab.Table[uint32]
	// phtFIFO holds the PHT's keys in insertion order for capacity
	// eviction. It fills by appending; once the PHT is full (it never
	// shrinks) it is a ring whose oldest key is at phtHead, and each new key
	// takes the evicted one's slot.
	phtFIFO []uint32
	phtHead int
	tick    uint64
}

func newBingo() *bingo {
	return &bingo{}
}

func bingoKey(pc uint32, lineOff uint32) uint32 { return pc<<5 ^ lineOff }

// observe records an access; when the access opens a new region it returns
// the predicted footprint (excluding the trigger line) and true.
func (bg *bingo) observe(pc uint32, addr uint64) (base uint64, footprint uint32, ok bool) {
	bg.tick++
	rbase := addr &^ (regionBytes - 1)
	lineOff := uint32((addr % regionBytes) / stream.LineBytes)
	for i := range bg.regions {
		if bg.regions[i].base == rbase {
			bg.regions[i].footprint |= 1 << lineOff
			bg.regions[i].lru = bg.tick
			// Write-through training: grow the trigger's footprint as the
			// region is visited, so predictions are available long before
			// the region retires (warmup matters for long scans).
			bg.phtMerge(bg.regions[i].trigger, 1<<lineOff)
			return 0, 0, false
		}
	}
	// New region: retire the LRU region's footprint into the PHT first.
	if len(bg.regions) >= regionTableSize {
		victim := 0
		for i := range bg.regions {
			if bg.regions[i].lru < bg.regions[victim].lru {
				victim = i
			}
		}
		bg.retire(bg.regions[victim])
		bg.regions[victim] = bg.regions[len(bg.regions)-1]
		bg.regions = bg.regions[:len(bg.regions)-1]
	}
	key := bingoKey(pc, lineOff)
	bg.regions = append(bg.regions, bingoRegion{
		base: rbase, footprint: 1 << lineOff, trigger: key, lru: bg.tick,
	})
	pred, hit := bg.pht.Get(uint64(key))
	if !hit {
		// Fall back to the PC-only key (Bingo's shorter event).
		pred, hit = bg.pht.Get(uint64(bingoKey(pc, 0)))
	}
	if !hit || pred == 0 {
		return 0, 0, false
	}
	return rbase, pred &^ (1 << lineOff), true
}

// phtEntry returns key's PHT footprint, allocating the entry if needed:
// when the table is full the oldest inserted key is dropped first.
func (bg *bingo) phtEntry(key uint32) *uint32 {
	if !bg.pht.Has(uint64(key)) {
		if bg.pht.Len() >= phtSize {
			bg.pht.Delete(uint64(bg.phtFIFO[bg.phtHead]))
			bg.phtFIFO[bg.phtHead] = key
			bg.phtHead = (bg.phtHead + 1) % phtSize
		} else {
			bg.phtFIFO = append(bg.phtFIFO, key)
		}
	}
	p, _ := bg.pht.Ref(uint64(key))
	return p
}

// phtMerge ORs bits into a trigger's recorded footprint.
func (bg *bingo) phtMerge(key uint32, bits uint32) {
	*bg.phtEntry(key) |= bits
}

// retire replaces the trigger's prediction with the region's final
// footprint: the most recent full generation wins (recency beats the
// write-through accumulation, shedding stale dense predictions).
func (bg *bingo) retire(r bingoRegion) {
	*bg.phtEntry(r.trigger) = r.footprint
	*bg.phtEntry(r.trigger &^ 31) = r.footprint
}

// Prefetchers drives all configured prefetch engines for every tile,
// attached to the cache system's access observers.
type Prefetchers struct {
	sys  *cache.System
	bulk bool // group L2 prefetches by bank (cfg.BulkPrefetch with interleave > one line)

	l1Stride []*strideTable
	l2Stride []*strideTable
	bingos   []*bingo
}

// Attach builds the configured prefetchers and hooks them to the cache
// system. With PrefetchNone it installs nothing.
func Attach(cfg config.Config, sys *cache.System) *Prefetchers {
	p := &Prefetchers{sys: sys, bulk: cfg.BulkPrefetch && cfg.L3InterleaveBytes > stream.LineBytes}
	if cfg.Prefetch == config.PrefetchNone {
		return p
	}
	n := cfg.Tiles()
	p.l2Stride = make([]*strideTable, n)
	for i := range p.l2Stride {
		p.l2Stride[i] = newStrideTable()
	}
	switch cfg.Prefetch {
	case config.PrefetchStride:
		p.l1Stride = make([]*strideTable, n)
		for i := range p.l1Stride {
			p.l1Stride[i] = newStrideTable()
		}
	case config.PrefetchBingo:
		p.bingos = make([]*bingo, n)
		for i := range p.bingos {
			p.bingos[i] = newBingo()
		}
	}
	sys.SetL1Observer(p.onL1Access)
	sys.SetL2MissObserver(p.onL2Miss)
	return p
}

// onL1Access trains the L1-level prefetcher on demand accesses.
func (p *Prefetchers) onL1Access(tile int, addr uint64, pc uint32, hit bool) {
	if p.l1Stride != nil {
		t := p.l1Stride[tile]
		if e, ready := t.train(pc, addr); ready {
			p.issueStride(tile, t, e, l1Degree, cache.PrefL1, pc)
		}
	}
	if p.bingos != nil {
		if base, fp, ok := p.bingos[tile].observe(pc, addr); ok {
			for l := 0; l < linesPerRegion; l++ {
				if fp&(1<<uint(l)) == 0 {
					continue
				}
				p.sys.Access(tile, base+uint64(l*stream.LineBytes), cache.PrefL1, cache.Meta{PC: pc, StreamID: -1}, nil)
			}
		}
	}
}

// onL2Miss trains the L2 stride prefetcher.
func (p *Prefetchers) onL2Miss(tile int, lineAddr uint64, pc uint32) {
	if p.l2Stride == nil {
		return
	}
	t := p.l2Stride[tile]
	if e, ready := t.train(pc, lineAddr); ready {
		if p.bulk {
			p.issueStrideBulk(tile, t, e, pc)
			return
		}
		p.issueStride(tile, t, e, l2Degree, cache.PrefL2, pc)
	}
}

// issueStride pushes the prefetch frontier of a confident stride stream out
// to degree elements ahead, issuing each not-yet-requested line.
func (p *Prefetchers) issueStride(tile int, t *strideTable, e *strideEntry, degree int, kind cache.Kind, pc uint32) {
	for _, la := range t.strideLines(e, degree) {
		p.sys.Access(tile, la, kind, cache.Meta{PC: pc, StreamID: -1}, nil)
	}
}

// strideLines computes the new line addresses to prefetch and advances the
// stream's frontier. The result lives in t's scratch until the next call.
func (t *strideTable) strideLines(e *strideEntry, degree int) []uint64 {
	lines := t.lineBuf[:0]
	prev := uint64(0)
	for k := 1; k <= degree; k++ {
		a := uint64(int64(e.lastAddr) + int64(k)*e.stride)
		la := cache.LineAddr(a)
		if la == prev || (e.frontier != 0 && la <= e.frontier && e.stride > 0) ||
			(e.frontier != 0 && la >= e.frontier && e.stride < 0) {
			continue
		}
		prev = la
		lines = append(lines, la)
	}
	if len(lines) > 0 {
		e.frontier = lines[len(lines)-1]
	}
	t.lineBuf = lines
	return lines
}

// issueStrideBulk groups the stream's new prefetch lines by home L3 bank
// and sends each group of up to 4 as a single request message (§VI).
func (p *Prefetchers) issueStrideBulk(tile int, t *strideTable, e *strideEntry, pc uint32) {
	meta := cache.Meta{PC: pc, StreamID: -1}
	group := t.groupBuf[:0]
	groupBank := -1
	for _, la := range t.strideLines(e, l2Degree) {
		bank := p.sys.HomeBank(la)
		if len(group) > 0 && (bank != groupBank || len(group) >= bulkGroup) {
			p.sys.PrefetchBulkL2(tile, groupBank, group, meta)
			group = group[:0]
		}
		groupBank = bank
		group = append(group, la)
	}
	if len(group) > 0 {
		p.sys.PrefetchBulkL2(tile, groupBank, group, meta)
	}
	t.groupBuf = group
}
