package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamfloat/internal/event"
	"streamfloat/internal/stream"
	"streamfloat/internal/workload"
)

// Property: the line walker emits every element exactly once, in order,
// with correct line addresses, for arbitrary affine patterns.
func TestPropertyWalkerCoversAllElements(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		elem := []int64{4, 8, 16, 32, 64}[rng.Intn(5)]
		pat := stream.Affine{
			Base:     uint64(rng.Intn(1<<20)) &^ 63,
			ElemSize: elem,
			Strides:  [3]int64{elem, int64(rng.Intn(4)) * 1024, 0},
			Lens:     [3]int64{1 + int64(rng.Intn(64)), 1 + int64(rng.Intn(4)), 0},
		}
		w := newLineWalker(pat)
		next := int64(0)
		seq := int64(0)
		for {
			ref, ok := w.next()
			if !ok {
				break
			}
			if ref.seq != seq {
				return false
			}
			seq++
			if ref.elemLo != next {
				return false
			}
			for e := ref.elemLo; e <= ref.elemHi; e++ {
				if pat.AddrAt(e)&^63 != ref.addr {
					return false
				}
			}
			next = ref.elemHi + 1
		}
		return next == pat.NumElems()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: credit flow conservation — at any quiescent point, the lines
// SE_L3 has issued never exceed the lines SE_L2 has granted, and the stream
// completes with issued == total lines.
func TestPropertyCreditConservation(t *testing.T) {
	f := func(linesRaw uint16) bool {
		lines := int64(linesRaw%2000) + 300
		r := newRig(nil)
		ph := &workload.Phase{
			Name: "s",
			Loads: []stream.Decl{{ID: 0, Name: "a", PC: 77, Affine: &stream.Affine{
				Base: 0x5000000, ElemSize: 64, Strides: [3]int64{64}, Lens: [3]int64{lines},
			}}},
			NumIters:      lines,
			ComputeCycles: 1,
			InstrsPerIter: 4,
		}
		r.e.cores[0].histFor(77).floated = true // force floating

		violated := false
		next, done := int64(0), int64(0)
		var pump func()
		pump = func() {
			for next-done < 16 && next < lines {
				i := next
				next++
				r.e.RequestElement(0, 0, i, func(event.Cycle) {
					r.e.ReleaseElement(0, 0, i)
					done++
					pump()
					// Invariant check at every step.
					for _, s := range r.e.registry {
						g := s.group
						if s.issued > g.granted {
							violated = true
						}
					}
				})
			}
		}
		r.e.ConfigurePhase(0, ph, func() { pump() })
		r.Run()
		if violated || done != lines {
			return false
		}
		r.e.EndPhase(0)
		r.Run()
		return len(r.e.registry) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: element service is exactly-once — every requested element gets
// exactly one callback regardless of float/sink transitions.
func TestPropertyExactlyOnceService(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lines := int64(500 + rng.Intn(1000))
		r := newRig(nil)
		ph := bigStream(uint64(0x6000000+(seed&0xff)*0x100000), lines)
		served := make([]int, lines)
		next, done := int64(0), int64(0)
		var pump func()
		pump = func() {
			for next-done < 24 && next < lines {
				i := next
				next++
				r.e.RequestElement(0, 0, i, func(event.Cycle) {
					served[i]++
					r.e.ReleaseElement(0, 0, i)
					done++
					pump()
				})
			}
		}
		r.e.ConfigurePhase(0, ph, func() { pump() })
		r.Run()
		if done != lines {
			return false
		}
		for _, n := range served {
			if n != 1 {
				return false
			}
		}
		r.e.EndPhase(0)
		r.Run()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSEL2BufferBounded: the stream buffer never holds more lines than its
// allocated share plus the in-flight credit chunk.
func TestSEL2BufferBounded(t *testing.T) {
	r := newRig(nil)
	lines := int64(4096)
	ph := bigStream(0x7000000, lines)
	maxBuffered := 0
	next, done := int64(0), int64(0)
	var pump func()
	pump = func() {
		for next-done < 8 && next < lines {
			i := next
			next++
			r.e.RequestElement(0, 0, i, func(event.Cycle) {
				r.e.ReleaseElement(0, 0, i)
				done++
				for _, g := range r.e.l2s[0].groups {
					if g.buffered > maxBuffered {
						maxBuffered = g.buffered
					}
				}
				pump()
			})
		}
	}
	r.e.ConfigurePhase(0, ph, func() { pump() })
	r.Run()
	cap := r.e.cfg.SEL2BufferBytes / 64 / 4
	if maxBuffered > cap+cap/2+1 {
		t.Errorf("buffer held %d lines, share is %d", maxBuffered, cap)
	}
	r.e.EndPhase(0)
	r.Run()
}
