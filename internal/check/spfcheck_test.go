package check

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/spf"
	"repro/internal/topology"
)

// tiePersistRouter is a deliberately broken incremental router carrying the
// classic tie-break bug of increase repair: when the cost of a link that
// supports a node's shortest distance goes up, it looks for another in-link
// offering the same distance and — if one exists — assumes the tie persists
// and keeps every distance unchanged. The alternate support's own distance
// may run through the increased link upstream, so the "tie" can be an
// artifact of the stale table: the router then advertises a distance the
// network can no longer achieve. The differential oracle must catch this
// against the fresh-Dijkstra reference.
type tiePersistRouter struct {
	g     *topology.Graph
	root  topology.NodeID
	costs []float64
	ws    *spf.Workspace
	dist  []float64
	next  []topology.LinkID
	tree  *spf.Tree // the last recompute's, ws's scratch
}

func newTiePersistRouter(g *topology.Graph, root topology.NodeID, costs []float64) Router {
	b := &tiePersistRouter{
		g:     g,
		root:  root,
		costs: append([]float64(nil), costs...),
		ws:    spf.NewWorkspace(),
		dist:  make([]float64, g.NumNodes()),
		next:  make([]topology.LinkID, g.NumNodes()),
	}
	b.recompute()
	return b
}

func (b *tiePersistRouter) recompute() {
	t := spf.ComputeInto(b.ws, b.g, b.root, func(l topology.LinkID) float64 { return b.costs[l] })
	b.tree = t
	for i := range b.dist {
		b.dist[i] = t.Dist(topology.NodeID(i))
		b.next[i] = t.NextHop(topology.NodeID(i))
	}
}

func (b *tiePersistRouter) Update(l topology.LinkID, c float64) {
	old := b.costs[l]
	b.costs[l] = c
	if c >= old {
		lk := b.g.Link(l)
		if b.dist[lk.To] != b.dist[lk.From]+old {
			// The link supported no shortest path (any shortest path
			// through l would pin this equality), so no distance moves.
			return
		}
		// BUG: if any other in-link offers the same distance we declare the
		// tie persistent and keep the whole table — without checking that
		// the alternate support is independent of l.
		for _, e := range b.g.In(lk.To) {
			if e == l {
				continue
			}
			el := b.g.Link(e)
			if b.dist[el.From]+b.costs[e] == b.dist[lk.To] {
				if el.From == b.root {
					b.next[lk.To] = e
				} else {
					b.next[lk.To] = b.next[el.From]
				}
				return
			}
		}
	}
	b.recompute()
}

func (b *tiePersistRouter) Dist(dst topology.NodeID) float64            { return b.dist[dst] }
func (b *tiePersistRouter) NextHop(dst topology.NodeID) topology.LinkID { return b.next[dst] }
func (b *tiePersistRouter) Path(dst topology.NodeID) []topology.LinkID  { return b.tree.Path(dst) }

// TestInjectedTieBreakBugCaught proves the differential oracle's teeth: the
// tie-persistence bug above must be detected, and the reproducer that comes
// back must be minimized — still failing, and 1-minimal in the sense that
// removing any single remaining op makes the failure vanish.
func TestInjectedTieBreakBugCaught(t *testing.T) {
	t.Parallel()
	factory := func(g *topology.Graph, root topology.NodeID, costs []float64) Router {
		return newTiePersistRouter(g, root, costs)
	}
	var fail *Failure
	var min []SPFOp
	var topo Topo
	var costs []float64
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, m, tp, cs := checkSPF(rng, seed, factory)
		if f != nil {
			fail, min, topo, costs = f, m, tp, cs
			break
		}
	}
	if fail == nil {
		t.Fatal("differential oracle never caught the injected tie-break bug in 500 trials")
	}
	t.Logf("caught at seed %d on %s with %d minimized ops:\n%s", fail.Seed, fail.Topo, len(min), fail.Repro)
	if fail.Check != "spf-differential" {
		t.Fatalf("failure check = %q, want spf-differential", fail.Check)
	}
	if !strings.Contains(fail.Repro, "error:") || !strings.Contains(fail.Repro, "topo:") {
		t.Fatalf("reproducer is not self-contained:\n%s", fail.Repro)
	}
	if len(min) == 0 {
		t.Fatal("minimized op list is empty")
	}
	if !replaySPFFails(topo.G, costs, min, factory) {
		t.Fatal("minimized op list does not reproduce the failure")
	}
	for i := range min {
		sub := append(append([]SPFOp(nil), min[:i]...), min[i+1:]...)
		if len(sub) > 0 && replaySPFFails(topo.G, costs, sub, factory) {
			t.Fatalf("reproducer is not 1-minimal: still fails without op %d of %d", i, len(min))
		}
	}
}

// TestCheckSPFProductionClean spot-checks that the production incremental
// router passes the oracle on a spread of seeds (the campaign test covers
// many more).
func TestCheckSPFProductionClean(t *testing.T) {
	t.Parallel()
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if f := CheckSPF(rng, seed, IncrementalFactory); f != nil {
			t.Fatalf("production router failed the oracle:\n%s", f.Repro)
		}
	}
}

// TestOneULPImprovement replays spf.TestLineNumbersAgainstLinkIDReference's
// one-ulp input through the oracle, a regression no campaign draws: R reaches
// A directly at 3 and through M at 3.5, then M→A drops so A sits one ulp below
// 3 through M. B, 1000 beyond A, keeps its distance, but its tree path now
// leaves through M; a router whose next hop to B stayed on the direct line
// fails verifySPF's tree-path assertion.
func TestOneULPImprovement(t *testing.T) {
	t.Parallel()
	g := topology.New()
	r, a, m, b := g.AddNode("R"), g.AddNode("A"), g.AddNode("M"), g.AddNode("B")
	ra, _ := g.AddTrunk(r, a, topology.T56)
	rm, _ := g.AddTrunk(r, m, topology.T56)
	ma, _ := g.AddTrunk(m, a, topology.T56)
	ab, _ := g.AddTrunk(a, b, topology.T56)
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = 1
	}
	costs[ra], costs[rm], costs[ma], costs[ab] = 3, 1, 2.5, 1000
	routers, cur := buildRouters(g, costs, IncrementalFactory)
	applyOp(routers, cur, SPFOp{Link: ma, Cost: math.Nextafter(3, 0) - 1})
	if err := verifySPF(g, cur, routers, spf.NewWorkspace()); err != nil {
		t.Fatal(err)
	}
}

func TestMinimize(t *testing.T) {
	t.Parallel()
	ops := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	fails := func(sub []int) bool {
		has3, has7 := false, false
		for _, v := range sub {
			has3 = has3 || v == 3
			has7 = has7 || v == 7
		}
		return has3 && has7
	}
	got := Minimize(ops, fails)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("Minimize = %v, want [3 7]", got)
	}
	// A single-element failing sequence must survive unchanged.
	one := Minimize([]int{5}, func(sub []int) bool { return len(sub) > 0 })
	if len(one) != 1 || one[0] != 5 {
		t.Fatalf("Minimize([5]) = %v", one)
	}
}
