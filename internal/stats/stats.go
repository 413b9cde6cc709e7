// Package stats collects the simulation counters from which every figure and
// table of the paper is derived: NoC flit-hops by message class, cache
// hit/miss/eviction breakdowns (including the clean-unreused evictions of
// Fig 2), L3 request provenance (Fig 14), prefetcher accuracy, stream
// control-message counts, DRAM traffic, and end-to-end cycles.
package stats

import (
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// MsgClass categorizes NoC packets for traffic accounting (Fig 15 stacks
// traffic into coherence-control, data, and stream-management messages).
type MsgClass int

const (
	// ClassCtrlReq covers demand/prefetch request messages (GetS/GetX/GetU).
	ClassCtrlReq MsgClass = iota
	// ClassCtrlCoh covers coherence bookkeeping: eviction notifications,
	// directory updates, invalidations, acks.
	ClassCtrlCoh
	// ClassData covers cache-line and subline data transfers.
	ClassData
	// ClassStream covers stream-floating management: configure, migrate,
	// end, and flow-control credit messages.
	ClassStream

	// NumClasses is the number of message classes.
	NumClasses
)

func (c MsgClass) String() string {
	switch c {
	case ClassCtrlReq:
		return "ctrl-req"
	case ClassCtrlCoh:
		return "ctrl-coh"
	case ClassData:
		return "data"
	case ClassStream:
		return "stream-ctrl"
	}
	return fmt.Sprintf("MsgClass(%d)", int(c))
}

// L3ReqKind categorizes who generated each L3 access (Fig 14).
type L3ReqKind int

const (
	// L3CoreNormal is a demand or prefetch request from a core/private cache.
	L3CoreNormal L3ReqKind = iota
	// L3CoreStream is a request generated by SEcore for a non-floated stream.
	L3CoreStream
	// L3FloatAffine is a request issued by SE_L3 for a floated affine stream.
	L3FloatAffine
	// L3FloatIndirect is a request issued by SE_L3 for a floated indirect stream.
	L3FloatIndirect
	// L3FloatConfluence is a merged (multicast) request covering >1 stream.
	L3FloatConfluence

	// NumL3ReqKinds is the number of request kinds.
	NumL3ReqKinds
)

func (k L3ReqKind) String() string {
	switch k {
	case L3CoreNormal:
		return "core-normal"
	case L3CoreStream:
		return "core-stream"
	case L3FloatAffine:
		return "float-affine"
	case L3FloatIndirect:
		return "float-indirect"
	case L3FloatConfluence:
		return "float-confluence"
	}
	return fmt.Sprintf("L3ReqKind(%d)", int(k))
}

// Stats accumulates every counter for one simulation run. All fields are
// plain integers updated single-threaded by the event loop; the struct is
// read after the run completes.
type Stats struct {
	Cycles       uint64 // cycle at which the last core finished
	Instructions uint64 // total retired instructions (all cores)
	Iterations   uint64 // total kernel iterations (all cores)

	// NoC traffic.
	Flits         [NumClasses]uint64 // flits injected, by class
	FlitHops      [NumClasses]uint64 // flits x links traversed, by class
	Messages      [NumClasses]uint64
	LinkBusy      uint64 // sum over links of busy cycles (for utilization)
	MulticastSave uint64 // flit-hops saved by multicast vs unicast copies

	// Cache behaviour, per level.
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	L3Hits, L3Misses uint64

	// L2 eviction breakdown (Fig 2a). "Stream" means the line was brought
	// in by an access that belongs to a compiler-identified stream.
	L2Evictions               uint64
	L2EvictCleanNoReuse       uint64
	L2EvictCleanNoReuseStream uint64

	// Estimated flit-hops spent on lines that were cached and evicted clean
	// without reuse (Fig 2b), split into data and control.
	UnreusedDataFlitHops uint64
	UnreusedCtrlFlitHops uint64

	// L3 request provenance (Fig 14).
	L3Requests [NumL3ReqKinds]uint64

	// Prefetcher behaviour.
	PrefetchIssued uint64
	PrefetchUseful uint64

	// Stream machinery.
	StreamConfigs    uint64 // SEcore->SE_L2->SE_L3 configure messages
	StreamMigrations uint64
	StreamEnds       uint64
	StreamCredits    uint64
	StreamsFloated   uint64
	StreamsSunk      uint64
	ConfluenceGroups uint64 // streams that joined an existing group
	SublineResponses uint64 // indirect responses transmitted at subline size

	// SE buffer activity (for energy accounting).
	SEFIFOAccesses uint64
	SEL2Accesses   uint64
	SEL3Accesses   uint64

	// TLB translations performed by SE_L2/SE_L3 (config, credit, page
	// crossings, indirect elements — §IV-E).
	TLBTranslations uint64

	// Fallbacks: floated-stream element requests that missed the SE_L2
	// buffer and were served by a normal cache access instead.
	StreamFallbacks uint64

	// Load-latency histogram: bucket i counts demand/stream loads whose
	// request-to-data latency was in [2^i, 2^(i+1)) cycles (bucket 0 covers
	// 0-1; the last bucket is unbounded).
	LoadLatency [14]uint64

	// DRAM.
	DRAMReads, DRAMWrites uint64

	// Filled in by the energy model after the run.
	EnergyJ float64
}

// Merge adds o's counters into s, field by field. The event kernel
// (internal/par) accumulates into one Stats per shard; merging the
// shards at the end of the run reproduces the single-threaded totals exactly,
// because every field is a pure sum — Cycles and EnergyJ are only written
// after the merge, so adding their (zero) shard values is harmless.
func (s *Stats) Merge(o *Stats) { s.walk(o, opAdd, 0) }

// Sub subtracts o's counters from s, field by field — valid for cumulative
// snapshots, where every counter of o is at most its counterpart in s.
func (s *Stats) Sub(o *Stats) { s.walk(o, opSub, 0) }

// Scale multiplies every counter by f, rounding integer counters to the
// nearest whole event.
func (s *Stats) Scale(f float64) { s.walk(s, opScale, f) }

// walkOp selects the per-counter arithmetic of walk.
type walkOp uint8

const (
	opAdd walkOp = iota
	opSub
	opScale
)

func (op walkOp) u64(a, b uint64, f float64) uint64 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	}
	return uint64(math.Round(float64(a) * f))
}

func (op walkOp) f64(a, b, f float64) float64 {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	}
	return a * f
}

// counterOffsets locates every counter of Stats once, by reflection: the
// byte offsets of each uint64 (array elements included) and each float64.
// It panics on any field kind walk cannot combine, so a future non-additive
// field fails loudly when the package loads instead of being dropped.
func counterOffsets() (uints, floats []uintptr) {
	t := reflect.TypeOf(Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch k := f.Type.Kind(); {
		case k == reflect.Uint64:
			uints = append(uints, f.Offset)
		case k == reflect.Float64:
			floats = append(floats, f.Offset)
		case k == reflect.Array && f.Type.Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Type.Len(); j++ {
				uints = append(uints, f.Offset+uintptr(j)*f.Type.Elem().Size())
			}
		default:
			panic("stats: cannot combine field " + f.Name)
		}
	}
	return uints, floats
}

var uintOffsets, floatOffsets = counterOffsets()

// walk is the one field walk behind Merge, Sub and Scale: it sets every
// counter of s to op applied to it and o's counterpart (Scale passes s itself
// as o and the factor as f), so a new counter is combined everywhere
// automatically. The offsets come from counterOffsets, which keeps the walk
// free of per-field reflection: Merge runs at every barrier poll of a
// sampled simulation.
func (s *Stats) walk(o *Stats, op walkOp, f float64) {
	sp, opp := unsafe.Pointer(s), unsafe.Pointer(o)
	for _, off := range uintOffsets {
		d := (*uint64)(unsafe.Add(sp, off))
		*d = op.u64(*d, *(*uint64)(unsafe.Add(opp, off)), f)
	}
	for _, off := range floatOffsets {
		d := (*float64)(unsafe.Add(sp, off))
		*d = op.f64(*d, *(*float64)(unsafe.Add(opp, off)), f)
	}
}

// RecordLoadLatency files one load's service latency into the histogram.
func (s *Stats) RecordLoadLatency(cycles uint64) {
	b := 0
	for v := cycles; v > 1 && b < len(s.LoadLatency)-1; v >>= 1 {
		b++
	}
	s.LoadLatency[b]++
}

// LoadLatencyPercentile returns an upper bound on the given percentile of
// load latency, in cycles. Because the histogram is power-of-two bucketed,
// the result is the upper edge 2^(i+1) of the first bucket whose cumulative
// count reaches the percentile — an upper bound, not an interpolated value.
// p is clamped into (0, 1]: p > 1 (or NaN) behaves like 1.0, and p <= 0 is
// treated as the smallest non-empty percentile (the first recorded load).
func (s *Stats) LoadLatencyPercentile(p float64) uint64 {
	var total uint64
	for _, n := range s.LoadLatency {
		total += n
	}
	if total == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	} else if p > 1 {
		p = 1
	}
	target := uint64(p * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.LoadLatency {
		cum += n
		if cum >= target {
			return 1 << uint(i+1)
		}
	}
	return 1 << uint(len(s.LoadLatency))
}

// TotalFlits sums injected flits over all classes.
func (s *Stats) TotalFlits() uint64 {
	var t uint64
	for _, v := range s.Flits {
		t += v
	}
	return t
}

// TotalFlitHops sums flit-hops over all classes.
func (s *Stats) TotalFlitHops() uint64 {
	var t uint64
	for _, v := range s.FlitHops {
		t += v
	}
	return t
}

// TotalL3Requests sums L3 accesses over all request kinds.
func (s *Stats) TotalL3Requests() uint64 {
	var t uint64
	for _, v := range s.L3Requests {
		t += v
	}
	return t
}

// NoCUtilization is the average fraction of link-cycles spent busy, given
// the number of unidirectional links in the mesh.
func (s *Stats) NoCUtilization(numLinks int) float64 {
	if s.Cycles == 0 || numLinks == 0 {
		return 0
	}
	return float64(s.LinkBusy) / (float64(s.Cycles) * float64(numLinks))
}

// PrefetchAccuracy is the fraction of issued prefetches that were used.
func (s *Stats) PrefetchAccuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchIssued)
}

// IPC is aggregate instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}
