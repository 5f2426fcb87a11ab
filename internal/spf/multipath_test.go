package spf

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestDAGDiamond(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	tree := Compute(g, a, unit)
	dag := ComputeDAG(tree, unit, 0)
	// Two equal-cost 2-hop paths: both first hops are valid.
	hops := dag.NextHops(d)
	if len(hops) != 2 {
		t.Fatalf("NextHops(D) = %v, want both first hops", hops)
	}
	set := map[topology.LinkID]bool{hops[0]: true, hops[1]: true}
	if !set[ids["ab"]] || !set[ids["ac"]] {
		t.Errorf("NextHops(D) = %v, want {ab, ac}", hops)
	}
	// Direct neighbors have exactly one next hop.
	if nh := dag.NextHops(g.MustLookup("B")); len(nh) != 1 || nh[0] != ids["ab"] {
		t.Errorf("NextHops(B) = %v", nh)
	}
	// The root has none.
	if dag.NextHops(a) != nil {
		t.Error("NextHops(root) should be nil")
	}
	if tree.Dist(d) != 2 {
		t.Errorf("Dist(D) = %v", tree.Dist(d))
	}
}

func TestDAGAsymmetricCosts(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	cost := func(l topology.LinkID) float64 {
		if l == ids["ab"] {
			return 2
		}
		return 1
	}
	dag := ComputeDAG(Compute(g, a, cost), cost, 0)
	hops := dag.NextHops(d)
	if len(hops) != 1 || hops[0] != ids["ac"] {
		t.Errorf("with unequal costs only the C path qualifies, got %v", hops)
	}
}

func TestDAGUnreachable(t *testing.T) {
	g := topology.New()
	g.AddNode("A")
	g.AddNode("B")
	g.AddNode("C")
	g.AddTrunk(0, 1, topology.T56)
	dag := ComputeDAG(Compute(g, 0, unit), unit, 0)
	if dag.NextHops(2) != nil {
		t.Error("unreachable node should have no next hops")
	}
}

// Property: every DAG next hop actually lies on a minimum-cost path, and
// the single-path tree's next hop is always among them.
func TestDAGContainsTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.Random(10, 3, seed)
		cost := func(l topology.LinkID) float64 { return 1 + float64((uint64(l)*uint64(seed)>>2)%5) }
		tree := Compute(g, 0, cost)
		dag := ComputeDAG(tree, cost, 0)
		for d := 1; d < g.NumNodes(); d++ {
			dst := topology.NodeID(d)
			if !tree.Reachable(dst) {
				continue
			}
			hops := dag.NextHops(dst)
			if len(hops) == 0 {
				return false
			}
			foundTree := false
			for _, h := range hops {
				l := g.Link(h)
				// The hop must be tight: cost + dist from its far end
				// equals the shortest distance.
				rest := dstDist(g, l.To, dst, cost)
				if rest < 0 {
					return false
				}
				if diff := cost(h) + rest - tree.Dist(dst); diff > 1e-6 || diff < -1e-6 {
					return false
				}
				if h == tree.NextHop(dst) {
					foundTree = true
				}
			}
			if !foundTree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// dstDist computes the shortest distance from src to dst, or -1.
func dstDist(g *topology.Graph, src, dst topology.NodeID, cost CostFunc) float64 {
	t := Compute(g, src, cost)
	if !t.Reachable(dst) {
		return -1
	}
	return t.Dist(dst)
}

// A multipath PSN's first hops are a DAG over its router's own tree: both
// equal-cost first hops at boot, one once an accepted update prices the other
// out.
func TestDAGOverRouterTree(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	if got := ComputeDAG(r.Tree(), r.Cost, 0).NextHops(d); len(got) != 2 {
		t.Fatalf("boot NextHops(D) = %v, want both first hops", got)
	}
	r.Accept(wholeUpdate(g, a, 1, func(l topology.LinkID) float64 {
		if l == ids["ab"] {
			return 9
		}
		return 1
	}))
	if got := ComputeDAG(r.Tree(), r.Cost, 0).NextHops(d); len(got) != 1 || got[0] != ids["ac"] {
		t.Errorf("after pricing out B, NextHops(D) = %v, want [ac]", got)
	}
}
