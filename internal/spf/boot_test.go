package spf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/topology"
)

// bootCosts is every link's cost in a network that is already running: the
// idle cost a settled module reports, as node.NewCostModule boots it —
// HN-SPF's floor, D-SPF's bias, min-hop's 1.
func bootCosts(g *topology.Graph, kind string) []float64 {
	costs := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		var m interface {
			Settle()
			Cost() float64
		}
		switch kind {
		case "hnspf":
			m = core.NewModule(l.Type, l.PropDelay)
		case "dspf":
			m = metric.NewDSPF(l.Type, l.PropDelay)
		case "minhop":
			m = metric.NewMinHop()
		default:
			panic("unknown metric " + kind)
		}
		m.Settle()
		costs[i] = m.Cost()
	}
	return costs
}

// checkBoot boots a table of every root of g and holds each router's tree to
// ComputeInto's bit for bit: distance, first line and parent link toward
// every destination. It returns how many roots the bucket queue settled; the
// others went to the heap.
func checkBoot(t testing.TB, g *topology.Graph, costs []float64) (buckets int) {
	t.Helper()
	n := g.NumNodes()
	tab := NewTable(g, allRoots(g), costs)
	ws := NewWorkspace()
	q := newBootQueue(g, costs)
	scratch := Tree{dist: make([]float64, n), parent: make([]uint16, n), nextHop: make([]uint16, n)}
	for i := 0; i < n; i++ {
		root := topology.NodeID(i)
		want := ComputeInto(ws, g, root, func(l topology.LinkID) float64 { return costs[l] })
		got := tab.Router(i).Tree()
		for d := 0; d < n; d++ {
			dst := topology.NodeID(d)
			if math.Float64bits(got.Dist(dst)) != math.Float64bits(want.Dist(dst)) ||
				got.NextLine(dst) != want.NextLine(dst) || got.Parent(dst) != want.Parent(dst) {
				t.Fatalf("root %d, node %d: boot tree has dist %v, line %d, parent link %d; heap has %v, %d, %d",
					i, d, got.Dist(dst), got.NextLine(dst), got.Parent(dst), want.Dist(dst), want.NextLine(dst), want.Parent(dst))
			}
		}
		if scratch.root = root; q.tree(&scratch) {
			buckets++
		}
	}
	return buckets
}

// The boot trees come from Dial's bucket queue where no two offers tie and
// from the heap elsewhere; either way each must be the heap's. The counts pin
// which path ran: the hierarchical maps' idle costs never tie, the ARPANET
// map's equal line types and delays sometimes do, and min-hop's unit costs
// tie at all but a root or two.
func TestBootTreesMatchHeap(t *testing.T) {
	hier := topology.Hierarchical(8, 16, 1987)
	arpanet := topology.Arpanet()
	one := topology.New()
	one.AddNode("A")
	for _, tc := range []struct {
		name  string
		g     *topology.Graph
		costs []float64
		want  string // "all", "some" or "none" of the roots on buckets
	}{
		{"hier:8x16 HN-SPF", hier, bootCosts(hier, "hnspf"), "all"},
		{"hier:8x16 D-SPF", hier, bootCosts(hier, "dspf"), "all"},
		{"hier:8x16 min-hop", hier, bootCosts(hier, "minhop"), "some"},
		{"ARPANET HN-SPF", arpanet, bootCosts(arpanet, "hnspf"), "some"},
		{"ARPANET min-hop", arpanet, bootCosts(arpanet, "minhop"), "none"},
		{"one node", one, nil, "all"},
	} {
		n := tc.g.NumNodes()
		got := checkBoot(t, tc.g, tc.costs)
		t.Logf("%s: %d of %d roots on buckets", tc.name, got, n)
		if ok := map[string]bool{"all": got == n, "some": got > 0 && got < n, "none": got == 0}[tc.want]; !ok {
			t.Errorf("%s: %d of %d roots on buckets, want %s", tc.name, got, n, tc.want)
		}
	}
}

// Random graphs in both cost regimes of check.GenCost — small integers, where
// ties are common, and uniform reals — with parallel trunks, whose lines
// reach the same neighbour at the same cost.
func TestBootTreesMatchHeapRandom(t *testing.T) {
	total, buckets := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(8+rng.Intn(24), 3, seed)
		addParallelTrunks(g, rng, 4)
		integer := seed%2 == 0
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			if integer {
				costs[i] = float64(1 + rng.Intn(8))
			} else {
				costs[i] = 0.1 + 99.9*rng.Float64()
			}
		}
		t.Run(fmt.Sprintf("seed %d integer %v", seed, integer), func(t *testing.T) {
			buckets += checkBoot(t, g, costs)
		})
		total += g.NumNodes()
	}
	t.Logf("%d of %d roots on buckets", buckets, total)
	if buckets == 0 || buckets == total {
		t.Errorf("%d of %d roots on buckets: both paths should run", buckets, total)
	}
}

// Past maxRing buckets every root goes to the heap, including a spread whose
// bucket index would overflow an int.
func TestBootSpreadPastRingFallsBack(t *testing.T) {
	g := topology.Random(12, 3, 5)
	for _, pair := range [][2]float64{{1, maxRing}, {1e-300, 1}, {5e-324, 1e308}} {
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = pair[i%2]
		}
		if newBootQueue(g, costs) != nil {
			t.Errorf("costs %v: bucket queue built, want the heap", pair)
		}
		if got := checkBoot(t, g, costs); got != 0 {
			t.Errorf("costs %v: %d roots on buckets, want 0", pair, got)
		}
	}
}

// FuzzBootMatchesHeap decodes bytes into a small graph and a cost regime and
// holds the boot trees to the heap's, as TestBootTreesMatchHeap does. Byte 0
// is the node count (1–16), byte 1 the regime, then each (a, b, c) triple a
// trunk between nodes a and b, c drawing its two links' costs. The regimes:
// small integers (ties), tenths (sums that tie or miss by an ulp), powers of
// two across the ring bound with a denormal (wide spread), and every trunk
// doubled, the copy one cost unit dearer (parallel trunks). The seeds are testdata/fuzz/FuzzBootMatchesHeap.
func FuzzBootMatchesHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, regime := 1+int(data[0]%16), data[1]%4
		g := topology.New()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("N%d", i))
		}
		var draws []byte
		for data = data[2:]; len(data) >= 3 && g.NumLinks() < 200; data = data[3:] {
			a, b := topology.NodeID(int(data[0])%n), topology.NodeID(int(data[1])%n)
			if a == b {
				continue
			}
			for k := 0; k < 1+int(regime/3); k++ {
				g.AddTrunk(a, b, topology.T56)
				draws = append(draws, data[2]+byte(k), data[2]>>4+byte(k))
			}
		}
		costs := make([]float64, g.NumLinks())
		for i, c := range draws {
			switch regime {
			case 0, 3:
				costs[i] = float64(1 + c%8)
			case 1:
				costs[i] = float64(1+c%8) / 10
			case 2:
				costs[i] = math.Ldexp(1, int(c%12))
				if c == 0xff {
					costs[i] = 5e-324
				}
			}
		}
		checkBoot(t, g, costs)
	})
}
