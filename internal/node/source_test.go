package node

import (
	"math"
	"strings"
	"testing"

	"repro/internal/topology"
)

// A source never fires twice at one instant: every gap is at least one
// tick, at any finite positive rate, from rates whose gaps saturate the
// clock to rates whose gaps all round to zero.
func TestGapAtLeastOneTick(t *testing.T) {
	for _, rate := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-3, 1, 1e3, 1e6, 1e9, 1e300, math.MaxFloat64} {
		s := NewSource(3, 5)
		s.Rate = rate
		for i := 0; i < 10_000; i++ {
			if g := s.Gap(); g < 1 {
				t.Fatalf("rate %v: gap %d is %v, want at least one tick", rate, i, g)
			}
		}
	}
}

// SetRow keeps the positive entries in row order and sets Rate to the row's
// total at the clamped mean size; Emit sends to each destination in
// proportion to its entry, never to one the row leaves out, and stamps the
// destination's hop count.
func TestSourceRow(t *testing.T) {
	s := NewSource(7, 2)
	dsts := []topology.NodeID{0, 1, 3, 4}
	bps := []float64{3000, 0, 1000, -5}
	hops := func(d topology.NodeID) int { return 10 + int(d) }
	s.SetRow(dsts, bps, hops)
	if got := s.Dests(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Dests() = %v, want [0 3]", got)
	}
	if want := 4000 / ClampedMeanPktBits(); s.Rate != want {
		t.Fatalf("Rate = %v, want %v", s.Rate, want)
	}
	const n = 100_000
	count := map[topology.NodeID]int{}
	var p Packet
	for i := 0; i < n; i++ {
		s.Emit(&p, 9)
		if p.Src != 2 || p.Created != 9 || p.Arrival != topology.NoLink || p.SizeBits < MinPktBits || p.SizeBits > MaxPktBits ||
			p.MinHops != hops(p.Dst) {
			t.Fatalf("emitted %+v", p)
		}
		count[p.Dst]++
	}
	if len(count) != 2 || math.Abs(float64(count[0])/n-0.75) > 0.01 {
		t.Errorf("destinations %v over %d packets, want 0 three times as often as 3", count, n)
	}
	// A new row replaces the old one.
	s.SetRow(dsts, []float64{0, 0, 0, 600}, hops)
	if got := s.Dests(); len(got) != 1 || got[0] != 4 || s.Rate != 600/ClampedMeanPktBits() {
		t.Fatalf("after SetRow: Dests() = %v, Rate %v", got, s.Rate)
	}
}

// A user packet's Seq is its PSN's ID<<32 | the packets its source emitted
// before it. The last count that fits must pack with the ID intact, and the
// one after it must panic instead of carrying into the ID.
func TestUserSeqExhaustionPanics(t *testing.T) {
	s := NewSource(1, 5)
	s.SetRow([]topology.NodeID{0}, []float64{1000}, func(topology.NodeID) int { return 1 })
	s.emitted = math.MaxUint32 - 1
	var p Packet
	s.Emit(&p, 1)
	if want := uint64(5<<32 | (math.MaxUint32 - 1)); p.Seq != want {
		t.Fatalf("last in-range packet: Seq %#x, want %#x", p.Seq, want)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "user sequence") || !strings.Contains(msg, "node 5") {
			t.Fatalf("packet past the limit: recovered %q, want the named user-sequence panic", msg)
		}
	}()
	s.Emit(&p, 2)
	t.Fatal("Emit returned: the count passed 2^32 unnoticed")
}
