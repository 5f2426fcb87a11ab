package spf

import (
	"math"
	"testing"

	"repro/internal/flooding"
	"repro/internal/topology"
)

// treesMatch requires two trees to agree exactly: root, distances, parents
// and next hops.
func treesMatch(t *testing.T, got, want *Tree, label string) {
	t.Helper()
	if got.root != want.root {
		t.Fatalf("%s: root = %v, want %v", label, got.root, want.root)
	}
	if len(got.dist) != len(want.dist) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.dist), len(want.dist))
	}
	for i := range want.dist {
		n := topology.NodeID(i)
		if got.Dist(n) != want.Dist(n) && !(math.IsInf(got.Dist(n), 1) && math.IsInf(want.Dist(n), 1)) {
			t.Errorf("%s: Dist(%d) = %v, want %v", label, i, got.Dist(n), want.Dist(n))
		}
		if got.Parent(n) != want.Parent(n) {
			t.Errorf("%s: Parent(%d) = %v, want %v", label, i, got.Parent(n), want.Parent(n))
		}
		if got.NextHop(n) != want.NextHop(n) {
			t.Errorf("%s: NextHop(%d) = %v, want %v", label, i, got.NextHop(n), want.NextHop(n))
		}
	}
}

// TestComputeIntoDirtyWorkspace reuses one workspace across graphs of
// different sizes and cost functions; every result must equal a fresh
// Compute, no matter what the workspace previously held.
func TestComputeIntoDirtyWorkspace(t *testing.T) {
	big := topology.Arpanet()
	small := topology.Ring(5, topology.T56)
	varied := func(l topology.LinkID) float64 { return 1 + float64(l%7) }

	ws := NewWorkspace()

	// Larger graph first: arrays grow.
	got := ComputeInto(ws, big, 3, varied)
	treesMatch(t, got, Compute(big, 3, varied), "big/varied")

	// Smaller graph into the now-dirty larger workspace: arrays shrink and
	// stale distances/parents beyond the new size must not leak in.
	got = ComputeInto(ws, small, 2, unit)
	treesMatch(t, got, Compute(small, 2, unit), "small/unit")

	// Back to the larger graph with different costs and root.
	costs2 := func(l topology.LinkID) float64 { return 1 + float64(l%3) }
	got = ComputeInto(ws, big, 17, costs2)
	treesMatch(t, got, Compute(big, 17, costs2), "big/costs2")

	// Repeat on the same graph: the result must be stable across reuse.
	got = ComputeInto(ws, big, 17, costs2)
	treesMatch(t, got, Compute(big, 17, costs2), "big/costs2 repeat")
}

// TestComputeIntoAliasing documents the ownership contract: the returned
// tree is workspace-owned and overwritten by the next ComputeInto.
func TestComputeIntoAliasing(t *testing.T) {
	g := topology.Line(4, topology.T56)
	ws := NewWorkspace()
	first := ComputeInto(ws, g, 0, unit)
	second := ComputeInto(ws, g, 3, unit)
	if first != second {
		t.Fatal("ComputeInto should return the workspace-owned tree both times")
	}
	if first.root != 3 {
		t.Fatal("second computation should have overwritten the first")
	}
}

// TestComputeIntoValidatesAllCosts: validation is hoisted out of the
// relaxation loop, so even a link the search would never scan is checked.
func TestComputeIntoValidatesAllCosts(t *testing.T) {
	g := topology.Line(3, topology.T56)
	bad, _ := g.FindTrunk(2, 1) // link out of the far end, never relaxed from root 0 before node 2 settles
	defer func() {
		if recover() == nil {
			t.Error("non-positive cost should panic even on an unscanned link")
		}
	}()
	ComputeInto(NewWorkspace(), g, 0, func(l topology.LinkID) float64 {
		if l == bad {
			return -1
		}
		return 1
	})
}

// TestSteadyStateZeroAllocs pins the allocation-free contract of the SPF
// hot paths at run time: a full Dijkstra through a warm Workspace, tree
// lookups, and incremental repairs — whole updates through Accept, with two
// versions of every origin in flight between the table's two routers, and
// single links through Update, cost rises and drops alike — once the table's
// scratch has grown to the topology's size and Update has touched each
// origin once.
func TestSteadyStateZeroAllocs(t *testing.T) {
	g := topology.Arpanet()
	far := topology.NodeID(g.NumNodes() - 1)
	cost := func(l topology.LinkID) float64 { return 1 + float64(l%7) }
	ws := NewWorkspace()
	ComputeInto(ws, g, 0, cost) // warm the workspace
	var sink float64
	if avg := testing.AllocsPerRun(100, func() {
		tree := ComputeInto(ws, g, 0, cost)
		sink += tree.Dist(far) + float64(tree.NextHop(far))
	}); avg != 0 {
		t.Errorf("ComputeInto on a warm workspace allocates %.1f objects/op, want 0", avg)
	}

	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = 30
	}
	tab := NewTable(g, []topology.NodeID{0, far}, costs)
	r, behind := tab.Router(0), tab.Router(1)
	repairs := func() int64 { _, n, _, _ := r.Stats(); return n }

	// Every link takes both a rise and a drop per pass, so tree links hit
	// repairIncrease and the rest repairDecrease or the skip path. The
	// updates of the Accept leg are made up front, as the engines' are made
	// by the originating PSN, not by the one accepting.
	const runs = 20
	var updates []*flooding.Update
	for pass := 0; pass < runs+2; pass++ { // one warm-up here, one inside AllocsPerRun
		for _, level := range []float64{90, 30} {
			for o := 0; o < g.NumNodes(); o++ {
				updates = append(updates, wholeUpdate(g, topology.NodeID(o), uint64(len(updates)+1),
					func(topology.LinkID) float64 { return level }))
			}
		}
	}
	// One router takes the whole pass before the other takes any of it, so
	// every origin's version list grows to two and shrinks again, twice a
	// pass: versions and holder sets must come from the slabs NewTable made.
	inFlight := 0
	acceptPass := func() {
		for _, router := range []*IncrementalRouter{r, behind} {
			for _, u := range updates[:2*g.NumNodes()] {
				if !router.Accept(u) {
					t.Fatal("fresh update refused")
				}
				inFlight = max(inFlight, len(tab.db[u.Origin]))
			}
		}
		updates = updates[2*g.NumNodes():]
	}
	acceptPass() // grow the repair scratch and the staging row to their high-watermark
	before := repairs()
	if avg := testing.AllocsPerRun(runs, acceptPass); avg != 0 {
		t.Errorf("Accept allocates %.1f objects/op in steady state, want 0", avg)
	}
	if repairs() == before || inFlight != 2 {
		t.Fatalf("no incremental repair ran under Accept, or %d versions in flight, want 2; the measurement is vacuous", inFlight)
	}

	updatePass := func() {
		for l := 0; l < g.NumLinks(); l++ {
			r.Update(topology.LinkID(l), 90)
		}
		for l := 0; l < g.NumLinks(); l++ {
			r.Update(topology.LinkID(l), 30)
		}
	}
	updatePass() // first touch: clones each origin's shared row into a private one
	before = repairs()
	if avg := testing.AllocsPerRun(runs, updatePass); avg != 0 {
		t.Errorf("single-link Update allocates %.1f objects/op after the first touch per origin, want 0", avg)
	}
	if repairs() == before {
		t.Fatal("no incremental repair ran under Update; the measurement is vacuous")
	}
	if sink == 0 {
		t.Fatal("tree lookups returned nothing")
	}
}
