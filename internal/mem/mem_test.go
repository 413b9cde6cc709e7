package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamfloat/internal/event"
	"streamfloat/internal/par/partest"
)

func TestBackingZeroFill(t *testing.T) {
	b := NewBacking()
	if b.Load8(0x123456) != 0 {
		t.Error("unwritten memory must read zero")
	}
	if b.ReadU64(0x9999) != 0 {
		t.Error("unwritten u64 must read zero")
	}
}

func TestBackingRoundTrip(t *testing.T) {
	b := NewBacking()
	b.WriteU32(0x1000, 0xdeadbeef)
	if got := b.ReadU32(0x1000); got != 0xdeadbeef {
		t.Errorf("u32 = %#x", got)
	}
	b.WriteU64(0x2000, 0x0102030405060708)
	if got := b.ReadU64(0x2000); got != 0x0102030405060708 {
		t.Errorf("u64 = %#x", got)
	}
	b.WriteF32(0x3000, 3.25)
	if got := b.ReadF32(0x3000); got != 3.25 {
		t.Errorf("f32 = %v", got)
	}
}

func TestBackingCrossPage(t *testing.T) {
	b := NewBacking()
	addr := uint64(4096 - 2) // straddles a page boundary
	b.WriteU32(addr, 0xa1b2c3d4)
	if got := b.ReadU32(addr); got != 0xa1b2c3d4 {
		t.Errorf("cross-page u32 = %#x", got)
	}
	if b.Pages() != 2 {
		t.Errorf("pages = %d, want 2", b.Pages())
	}
}

func TestAllocAlignment(t *testing.T) {
	b := NewBacking()
	a1 := b.Alloc(100, 0)
	if a1%64 != 0 {
		t.Errorf("default alignment violated: %#x", a1)
	}
	a2 := b.Alloc(10, 4096)
	if a2%4096 != 0 {
		t.Errorf("page alignment violated: %#x", a2)
	}
	if a2 < a1+100 {
		t.Error("allocations overlap")
	}
}

// Property: byte-level writes and reads agree for arbitrary addresses/data.
func TestPropertyBackingBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBacking()
		ref := map[uint64]byte{}
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(1 << 16))
			v := byte(rng.Intn(256))
			b.Store8(addr, v)
			ref[addr] = v
		}
		for addr, v := range ref {
			if b.Load8(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMLatencyAndCounters(t *testing.T) {
	r := partest.New(64, 6)
	st := r.St
	d := NewDRAM(r.Layout, 100, 25.6, []int{0, 7, 56, 63})
	var done event.Cycle
	d.Access(0x1000, 64, false, func(now event.Cycle) { done = now })
	r.Run()
	if done != 100 {
		t.Errorf("uncontended access at %d, want latency 100", done)
	}
	if st.DRAMReads != 1 || st.DRAMWrites != 0 {
		t.Errorf("counters: r=%d w=%d", st.DRAMReads, st.DRAMWrites)
	}
	d.Access(0x2000, 64, true, func(event.Cycle) {})
	r.Run()
	if st.DRAMWrites != 1 {
		t.Errorf("write not counted")
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	r := partest.New(1, 6)
	// One controller, 6.4 B/cycle: each 64B line occupies 10 cycles.
	d := NewDRAM(r.Layout, 50, 6.4, []int{0})
	var times []event.Cycle
	for i := 0; i < 4; i++ {
		d.Access(uint64(i*64), 64, false, func(now event.Cycle) { times = append(times, now) })
	}
	r.Run()
	if len(times) != 4 {
		t.Fatalf("completions = %d", len(times))
	}
	// Completions must be spaced by the 10-cycle service time.
	for i := 1; i < 4; i++ {
		if times[i]-times[i-1] != 10 {
			t.Errorf("gap %d->%d = %d, want 10", i-1, i, times[i]-times[i-1])
		}
	}
}

func TestDRAMControllerSpread(t *testing.T) {
	d := NewDRAM(partest.New(64, 6).Layout, 50, 25.6, []int{0, 7, 56, 63})
	seen := map[int]bool{}
	for page := 0; page < 16; page++ {
		seen[d.CtrlFor(uint64(page*4096))] = true
	}
	if len(seen) != 4 {
		t.Errorf("pages spread over %d controllers, want 4", len(seen))
	}
	if d.CtrlTile(0) != 0 || d.CtrlTile(3) != 63 {
		t.Error("controller tiles wrong")
	}
}
