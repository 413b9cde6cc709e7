package trace

import "testing"

func newTestTracer() *Tracer {
	return New(Config{Tiles: 2, MeshW: 2, MeshH: 1, RingDepth: 4,
		L3LatCycles: 4, Benchmark: "bench", Label: "SF/OOO8"})
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	tr := newTestTracer()
	for i := 0; i < 6; i++ {
		tr.Emit(uint64(i), 0, KindL1Miss, uint64(100+i), 0, 0)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d, want ring depth 4", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != uint64(2+i) || e.Key != uint64(102+i) {
			t.Errorf("event %d = cycle %d key %d, want oldest-first survivors 2..5", i, e.Cycle, e.Key)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestEventsMergeOrdering(t *testing.T) {
	tr := newTestTracer()
	tr.Emit(5, 1, KindL1Miss, 1, 0, 0)
	tr.Emit(5, 0, KindL2Miss, 2, 0, 0)
	tr.Emit(3, 1, KindL1Miss, 3, 0, 0)
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d", len(ev))
	}
	// cycle asc, then tile asc.
	if ev[0].Key != 3 || ev[1].Key != 2 || ev[2].Key != 1 {
		t.Errorf("order = %d,%d,%d, want 3,2,1", ev[0].Key, ev[1].Key, ev[2].Key)
	}
}

func TestCompOfCoversAllKinds(t *testing.T) {
	for k := KindPhaseBegin; k < NumKinds; k++ {
		if k.String() == "event?" {
			t.Errorf("kind %d has no name", k)
		}
		if compOf(k) >= NumComps {
			t.Errorf("kind %v maps to bad component", k)
		}
	}
	if compOf(KindIterIssue) != CompCPU || compOf(KindL3Evict) != CompCache ||
		compOf(KindNocHop) != CompNoC || compOf(KindStreamFloat) != CompStream ||
		compOf(KindBarrier) != CompSystem {
		t.Error("compOf mapping wrong for a spot-checked kind")
	}
}

// finish runs one probe through FinishLoad and returns tile 0's attribution.
func finish(t *testing.T, p LoadProbe, done uint64) TileAttribution {
	t.Helper()
	tr := newTestTracer()
	probe := tr.Probe()
	*probe = p
	tr.FinishLoad(0, probe, done)
	return tr.TileAttributions()[0]
}

func checkBuckets(t *testing.T, a TileAttribution, want map[Bucket]uint64) {
	t.Helper()
	for b := Bucket(0); b < NumBuckets; b++ {
		if a.Cycles[b] != want[b] {
			t.Errorf("%v = %d cycles, want %d", b, a.Cycles[b], want[b])
		}
	}
	var sum uint64
	for _, c := range a.Cycles {
		sum += c
	}
	if sum != a.TotalCycles {
		t.Errorf("buckets sum to %d, total is %d", sum, a.TotalCycles)
	}
}

func TestAttributionL1Hit(t *testing.T) {
	a := finish(t, LoadProbe{Enq: 10, Issue: 12, L1Done: 14, Level: LevelL1}, 14)
	checkBuckets(t, a, map[Bucket]uint64{BucketCoreWait: 2, BucketL1: 2})
	if a.ByLevel[LevelL1] != 1 || a.Loads != 1 {
		t.Error("L1-hit load not counted at LevelL1")
	}
}

func TestAttributionL2Hit(t *testing.T) {
	a := finish(t, LoadProbe{Enq: 0, Issue: 1, L1Done: 3, L2Done: 10, Level: LevelL2}, 10)
	checkBuckets(t, a, map[Bucket]uint64{BucketCoreWait: 1, BucketL1: 2, BucketL2: 7})
}

func TestAttributionL3Hit(t *testing.T) {
	// L3LatCycles=4: bank lookup charges 4 cycles to l3, the rest of the
	// round trip to noc.
	a := finish(t, LoadProbe{L1Done: 2, L2Done: 6, ReqAtBank: 16, Level: LevelL3}, 30)
	checkBuckets(t, a, map[Bucket]uint64{
		BucketL1: 2, BucketL2: 4, BucketNoC: 10 + 10, BucketL3: 4})
}

func TestAttributionDRAMMiss(t *testing.T) {
	a := finish(t, LoadProbe{L1Done: 2, L2Done: 4, ReqAtBank: 10,
		DRAMStart: 14, DRAMEnd: 50, Level: LevelDRAM}, 60)
	checkBuckets(t, a, map[Bucket]uint64{
		BucketL1: 2, BucketL2: 2, BucketNoC: 6 + 10, BucketL3: 4, BucketDRAM: 36})
	if a.ByLevel[LevelDRAM] != 1 {
		t.Error("DRAM load not counted at LevelDRAM")
	}
}

func TestAttributionMergedWaiter(t *testing.T) {
	// A merged waiter (no ReqAtBank of its own) charges its whole post-L2
	// wait to noc — the leader's network+memory time is not separable.
	a := finish(t, LoadProbe{L1Done: 2, L2Done: 5, Level: LevelMerged}, 25)
	checkBuckets(t, a, map[Bucket]uint64{BucketL1: 2, BucketL2: 3, BucketNoC: 20})
	if a.ByLevel[LevelMerged] != 1 {
		t.Error("merged load not counted at LevelMerged")
	}
}

func TestProbePoolReuse(t *testing.T) {
	tr := newTestTracer()
	p := tr.Probe()
	p.Enq, p.Issue, p.Level = 1, 2, LevelDRAM
	tr.FinishLoad(0, p, 10)
	q := tr.Probe()
	if q != p {
		t.Error("freed probe not reused")
	}
	if (*q != LoadProbe{}) {
		t.Error("reused probe not zeroed")
	}
}

func TestStreamSpanLifecycle(t *testing.T) {
	tr := newTestTracer()
	tr.Stream(KindStreamFloat, 100, 1, 3, 64, 2, 0x1000, nil)
	tr.Stream(KindStreamConfig, 101, 1, 3, 64, 0, 5, []byte{0xAB, 0xCD})
	tr.Stream(KindStreamMigrate, 200, 1, 3, 5, 7, 0, nil)
	tr.Stream(KindStreamEnd, 300, 1, 3, 0, 0, 0, nil)

	tr.Stream(KindStreamFloat, 150, 0, 1, 0, 0, 0x2000, nil)
	tr.Stream(KindStreamSink, 250, 0, 1, 42, 1, 0, nil)

	tr.Stream(KindStreamFloat, 400, 0, 2, 0, 0, 0x3000, nil)
	tr.FinishRun(500)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	s := spans[0]
	if s.Tile != 1 || s.SID != 3 || s.Start != 100 || s.End != 300 ||
		s.EndKind != "end" || s.Bank != 7 || s.Migrations != 1 ||
		s.Children != 2 || s.CfgHex != "abcd" {
		t.Errorf("ended span = %+v", s)
	}
	if spans[1].EndKind != "sink-alias" || spans[1].End != 250 {
		t.Errorf("sunk span = %+v", spans[1])
	}
	if spans[2].EndKind != "run-end" || spans[2].End != 500 {
		t.Errorf("run-end span = %+v", spans[2])
	}
	if tr.Cycles() != 500 {
		t.Errorf("cycles = %d", tr.Cycles())
	}
	// An end on a never-floated stream is a no-op.
	tr.Stream(KindStreamEnd, 501, 0, 9, 0, 0, 0, nil)
	if len(tr.Spans()) != 3 {
		t.Error("an end on an unknown stream created a span")
	}
}

func TestStreamKeyDisjointness(t *testing.T) {
	if StreamKey(3, 7) != 1<<63|3<<16|7 {
		t.Errorf("StreamKey = %#x", StreamKey(3, 7))
	}
	if StreamKey(0, 0)&(1<<63) == 0 {
		t.Error("stream keys must have the high bit set")
	}
}

func TestLinkFlits(t *testing.T) {
	tr := newTestTracer()
	tr.AddLinkFlits(0, 5)
	tr.AddLinkFlits(0, 3)
	tr.AddLinkFlits(7, 1)
	tr.AddLinkFlits(-1, 9) // out of range: ignored
	tr.AddLinkFlits(99, 9)
	lf := tr.LinkFlits()
	if lf[0] != 8 || lf[7] != 1 {
		t.Errorf("link flits = %v", lf)
	}
}

func TestAttributionSumsTiles(t *testing.T) {
	tr := newTestTracer()
	p := tr.Probe()
	p.Issue, p.L1Done, p.Level = 0, 2, LevelL1
	tr.FinishLoad(0, p, 2)
	p = tr.Probe()
	p.Issue, p.L1Done, p.Level = 0, 4, LevelL1
	tr.FinishLoad(1, p, 4)
	sum := tr.Attribution()
	if sum.Loads != 2 || sum.TotalCycles != 6 || sum.Cycles[BucketL1] != 6 {
		t.Errorf("summed attribution = %+v", sum)
	}
}
