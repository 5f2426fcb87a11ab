package spf

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/flooding"
	"repro/internal/topology"
)

// diamond builds A-B-D / A-C-D with configurable costs:
//
//	A --ab--> B --bd--> D
//	A --ac--> C --cd--> D
func diamond() (*topology.Graph, map[string]topology.LinkID) {
	g := topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	c, d := g.AddNode("C"), g.AddNode("D")
	ids := map[string]topology.LinkID{}
	ids["ab"], ids["ba"] = g.AddTrunk(a, b, topology.T56)
	ids["ac"], ids["ca"] = g.AddTrunk(a, c, topology.T56)
	ids["bd"], ids["db"] = g.AddTrunk(b, d, topology.T56)
	ids["cd"], ids["dc"] = g.AddTrunk(c, d, topology.T56)
	return g, ids
}

func unit(topology.LinkID) float64 { return 1 }

// treeHops returns the number of links on the tree's path to dst, or -1 if
// dst is unreachable.
func treeHops(t *Tree, dst topology.NodeID) int {
	if dst == t.root {
		return 0
	}
	if !t.Reachable(dst) {
		return -1
	}
	h := 0
	for n := dst; n != t.root; {
		h++
		n = t.g.Link(t.Parent(n)).From
	}
	return h
}

func TestComputeLine(t *testing.T) {
	g := topology.Line(4, topology.T56)
	tree := Compute(g, 0, unit)
	if tree.root != 0 {
		t.Error("root wrong")
	}
	for d := 0; d < 4; d++ {
		if got := tree.Dist(topology.NodeID(d)); got != float64(d) {
			t.Errorf("Dist(%d) = %v, want %d", d, got, d)
		}
		if got := treeHops(tree, topology.NodeID(d)); got != d {
			t.Errorf("Hops(%d) = %v, want %d", d, got, d)
		}
	}
	// Next hop toward every non-root node is the single outgoing link 0→1.
	first, _ := g.FindTrunk(0, 1)
	for d := 1; d < 4; d++ {
		if tree.NextHop(topology.NodeID(d)) != first {
			t.Errorf("NextHop(%d) should be the 0→1 link", d)
		}
	}
	if tree.NextHop(0) != topology.NoLink {
		t.Error("NextHop(root) should be NoLink")
	}
	if treeHops(tree, 0) != 0 {
		t.Error("Hops(root) should be 0")
	}
}

func TestComputeRespectsCosts(t *testing.T) {
	g, ids := diamond()
	d := g.MustLookup("D")
	// Make the B route expensive: traffic must go via C.
	cost := func(l topology.LinkID) float64 {
		if l == ids["ab"] || l == ids["ba"] {
			return 10
		}
		return 1
	}
	tree := Compute(g, g.MustLookup("A"), cost)
	if got := tree.Dist(d); got != 2 {
		t.Errorf("Dist(D) = %v, want 2 (via C)", got)
	}
	if tree.NextHop(d) != ids["ac"] {
		t.Error("path should start with A→C")
	}
	path := tree.Path(d)
	if len(path) != 2 || path[0] != ids["ac"] || path[1] != ids["cd"] {
		t.Errorf("Path = %v, want [ac cd]", path)
	}
}

func TestComputeDeterministicTieBreak(t *testing.T) {
	g, _ := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	// Equal costs: two 2-hop paths. The choice must be stable across runs.
	t1 := Compute(g, a, unit)
	for i := 0; i < 10; i++ {
		t2 := Compute(g, a, unit)
		if t1.NextHop(d) != t2.NextHop(d) {
			t.Fatal("tie-breaking is not deterministic")
		}
	}
}

func TestComputePanicsOnBadCost(t *testing.T) {
	g := topology.Line(2, topology.T56)
	for name, c := range map[string]float64{
		"zero": 0, "negative": -1, "nan": math.NaN(), "inf": math.Inf(1),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("cost %v should panic", c)
				}
			}()
			Compute(g, 0, func(topology.LinkID) float64 { return c })
		})
	}
}

func TestUnreachable(t *testing.T) {
	// Build a connected graph then make one node unreachable is impossible
	// via builders; use two components through a direct graph.
	g := topology.New()
	g.AddNode("A")
	g.AddNode("B")
	g.AddNode("C")
	g.AddTrunk(0, 1, topology.T56)
	// C is isolated.
	tree := Compute(g, 0, unit)
	if tree.Reachable(2) {
		t.Error("isolated node should be unreachable")
	}
	if treeHops(tree, 2) != -1 {
		t.Error("Hops to unreachable should be -1")
	}
	if tree.Path(2) != nil {
		t.Error("Path to unreachable should be nil")
	}
}

func TestTreeHereditary(t *testing.T) {
	// §4.1: "shortest-paths are hereditary (every subpath of a shortest
	// path is also a shortest path)". Check on the ARPANET graph: for every
	// destination, the path through parent p has Dist(p) + cost(parent
	// link) == Dist(d).
	g := topology.Arpanet()
	cost := func(l topology.LinkID) float64 { return 1 + float64(l%7) }
	tree := Compute(g, 0, cost)
	for d := 1; d < g.NumNodes(); d++ {
		dst := topology.NodeID(d)
		pl := tree.Parent(dst)
		p := g.Link(pl).From
		if math.Abs(tree.Dist(p)+cost(pl)-tree.Dist(dst)) > 1e-9 {
			t.Errorf("subpath optimality violated at node %d", d)
		}
	}
}

// The three update shortcuts of §2.2 that every router shares: an increase
// off the tree, a decrease that improves nothing and an unchanged cost are
// absorbed without a repair; an increase on the tree repairs and reroutes.
func TestRouterIncrementalSkips(t *testing.T) {
	g, _ := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	base := recomputes(r)

	// Find a link not in A's tree: the reverse of the chosen first hop.
	inTree := r.Tree().NextHop(d)
	notInTree := g.Link(inTree).Reverse()

	// Increase on an out-of-tree link: must skip (§2.2's example).
	r.Update(notInTree, 5)
	if recomputes(r) != base {
		t.Error("increase on out-of-tree link should skip the repair")
	}
	if r.skipped != 1 {
		t.Errorf("skip counter = %d after one skipped increase, want 1", r.skipped)
	}

	// Decrease that cannot improve any path: skip.
	r.Update(notInTree, 4)
	if recomputes(r) != base {
		t.Error("harmless decrease should skip the repair")
	}
	if r.skipped != 2 {
		t.Errorf("skip counter = %d after a skipped decrease, want 2", r.skipped)
	}

	// Unchanged cost: no-op, not even counted.
	r.Update(notInTree, 4)
	if recomputes(r) != base || r.skipped != 2 {
		t.Error("unchanged cost should be a no-op")
	}
	if r.Tree().NextHop(d) != inTree {
		t.Error("skipped updates must leave the route alone")
	}

	// Increase on the in-tree link: must repair and reroute.
	r.Update(inTree, 10)
	if recomputes(r) == base {
		t.Error("in-tree increase must repair")
	}
	if r.Tree().NextHop(d) == inTree {
		t.Error("route should have moved off the expensive link")
	}
}

func TestRouterDecreaseAttracts(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	// Push traffic to C by pricing the B path up.
	r.Update(ids["ab"], 10)
	if r.Tree().NextHop(d) != ids["ac"] {
		t.Fatal("setup: route should be via C")
	}
	// Now make the B path very attractive again.
	r.Update(ids["ab"], 0.1)
	if r.Tree().NextHop(d) != ids["ab"] {
		t.Error("route should be via B after the decrease")
	}
}

// A whole routing update — every link of one origin, two of them changing at
// once — goes in through Accept.
func TestRouterUpdateBatch(t *testing.T) {
	g, ids := diamond()
	a, d := g.MustLookup("A"), g.MustLookup("D")
	r := NewIncrementalRouter(g, a, unitCosts(g))
	costs := map[topology.LinkID]float64{ids["ab"]: 10, ids["ac"]: 5}
	fromA := func(seq uint64) *flooding.Update {
		return wholeUpdate(g, a, seq, func(l topology.LinkID) float64 { return costs[l] })
	}
	if !r.Accept(fromA(1)) {
		t.Fatal("first update from A refused")
	}
	if r.Tree().NextHop(d) != ids["ac"] || r.Tree().Dist(d) != 6 {
		t.Error("pricing both of A's links up must route via C at cost 6")
	}
	if r.Cost(ids["ab"]) != 10 || r.Cost(ids["ac"]) != 5 || r.Cost(ids["bd"]) != 1 {
		t.Error("the update must install every cost it carries and no other")
	}
	// A newer update that changes nothing is accepted (and would be
	// forwarded) but neither repairs nor counts as skipped.
	before, skipped := recomputes(r), r.skipped
	if !r.Accept(fromA(2)) {
		t.Error("a newer sequence number must be accepted even with equal costs")
	}
	if recomputes(r) != before || r.skipped != skipped {
		t.Error("no-op update should not touch the tree or the counters")
	}
	// The same or an older sequence number is a duplicate.
	costs[ids["ab"]] = 1
	if r.Accept(fromA(2)) || r.Accept(fromA(1)) || r.Cost(ids["ab"]) != 10 {
		t.Error("duplicate and stale updates must be refused and leave the database alone")
	}
}

func TestRouterPanics(t *testing.T) {
	g, _ := diamond()
	r := NewIncrementalRouter(g, 0, unitCosts(g))
	negative := unitCosts(g)
	negative[1] = -1
	past := topology.LinkID(g.NumLinks())
	for name, tc := range map[string]struct {
		want string // every boundary panics by name, never on a bare index
		fn   func()
	}{
		"bad initial":       {"spf: link cost must be positive", func() { NewIncrementalRouter(g, 0, negative) }},
		"bad cost":          {"spf: link cost must be positive", func() { r.Update(0, -1) }},
		"batch mismatch":    {"want exactly its out-links", func() { r.Accept(flooding.NewUpdate(0, 1, []topology.LinkID{0}, []float64{1})) }},
		"batch bad cost":    {"carries cost NaN", func() { r.Accept(flooding.NewUpdate(0, 1, g.Out(0), []float64{math.NaN(), 1})) }},
		"update past end":   {fmt.Sprintf("spf: link %d: graph has %d links", past, past), func() { r.Update(past, 1) }},
		"cost past end":     {fmt.Sprintf("spf: link %d: graph has %d links", past, past), func() { r.Cost(past) }},
		"cost of no link":   {fmt.Sprintf("spf: link -1: graph has %d links", past), func() { r.Cost(topology.NoLink) }},
		"update of no link": {fmt.Sprintf("spf: link -1: graph has %d links", past), func() { r.Update(topology.NoLink, 1) }},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("recovered %q, want a panic naming %q", msg, tc.want)
				}
			}()
			tc.fn()
			t.Errorf("%s returned", name)
		})
	}
}

// Property: Dijkstra on random graphs satisfies the triangle inequality
// dist(d) <= dist(u) + cost(u→d) for every link.
func TestDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.Random(12, 3, seed)
		cost := func(l topology.LinkID) float64 { return 1 + float64((int64(l)*seed%7+7)%7) }
		tree := Compute(g, 0, cost)
		for _, l := range g.Links() {
			if tree.Dist(l.To) > tree.Dist(l.From)+cost(l.ID)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a router fed whole routing updates (every link of one origin,
// the shape flooding delivers) agrees with a from-scratch Dijkstra over the
// same costs.
func TestRouterMatchesScratchProperty(t *testing.T) {
	f := func(seed int64, updates []uint16) bool {
		g := topology.Random(8, 2.5, seed)
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = 3
		}
		r := NewIncrementalRouter(g, 0, costs)
		for seq, u := range updates {
			origin := topology.NodeID(int(u) % g.NumNodes())
			for i, l := range g.Out(origin) {
				costs[l] = 1 + float64((int(u)>>uint(i))%29)
			}
			if !r.Accept(wholeUpdate(g, origin, uint64(seq+1), func(l topology.LinkID) float64 { return costs[l] })) {
				return false
			}
		}
		scratch := Compute(g, 0, func(l topology.LinkID) float64 { return costs[l] })
		for d := 0; d < g.NumNodes(); d++ {
			if math.Abs(scratch.Dist(topology.NodeID(d))-r.Tree().Dist(topology.NodeID(d))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// recomputes is the router's route computations of any kind, full or
// incremental.
func recomputes(r *IncrementalRouter) int64 {
	full, incremental, _, _ := r.Stats()
	return full + incremental
}
