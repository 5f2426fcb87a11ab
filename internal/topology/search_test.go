package topology_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/spf"
	"repro/internal/topology"
)

type namedGraph struct {
	name string
	g    *topology.Graph
}

// searchGraphs are the graphs the search is held to the Dijkstra on.
func searchGraphs() []namedGraph {
	two, _, _ := topology.TwoRegion(6, topology.T56)
	return []namedGraph{
		{"random", topology.Random(40, 3, 7)},
		{"waxman", topology.Waxman(40, 0.4, 0.2, 11)},
		{"hierarchical", topology.Hierarchical(4, 8, 3)},
		{"tworegion", two},
		{"arpanet", topology.Arpanet()},
		{"milnet", topology.Milnet()},
	}
}

// unitHops returns the hop distances from src over the links up admits, by
// the unit-cost Dijkstra the search replaced: a link up refuses costs N,
// more than any path of admitted links, and a distance of N or more means
// unreachable (-1).
func unitHops(g *topology.Graph, src topology.NodeID, up func(topology.LinkID) bool) []int {
	n := g.NumNodes()
	tree := spf.Compute(g, src, func(l topology.LinkID) float64 {
		if up != nil && !up(l) {
			return float64(n)
		}
		return 1
	})
	hops := make([]int, n)
	for v := range hops {
		if d := tree.Dist(topology.NodeID(v)); d < float64(n) {
			hops[v] = int(d)
		} else {
			hops[v] = -1
		}
	}
	return hops
}

// TestSearchMatchesDijkstra holds every From — over random down-sets of
// simplex links, at maxHops −1 to 3, on a search that has just run from
// another source — to the unit-cost Dijkstra and to a fresh search.
func TestSearchMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(1989))
	for _, ng := range searchGraphs() {
		name, g := ng.name, ng.g
		reused := topology.NewSearch(g)
		for trial, p := range []float64{0, 0.1, 0.3, 0.6} {
			var up func(topology.LinkID) bool
			if p > 0 {
				down := make([]bool, g.NumLinks())
				for l := range down {
					down[l] = rng.Float64() < p
				}
				up = func(l topology.LinkID) bool { return !down[l] }
			}
			for s := 0; s < g.NumNodes(); s++ {
				src := topology.NodeID(s)
				want := unitHops(g, src, up)
				for maxHops := -1; maxHops <= 3; maxHops++ {
					label := fmt.Sprintf("%s trial %d: From(%d, %d)", name, trial, s, maxHops)
					// The last From ran from another source (or with another bound).
					got := reused.From(src, maxHops, up)
					checkFrom(t, label, g, reused, got, src, maxHops, want)
					fresh := topology.NewSearch(g)
					freshOrder := fresh.From(src, maxHops, up)
					if fmt.Sprint(got) != fmt.Sprint(freshOrder) {
						t.Fatalf("%s: reused search reached %v, a fresh one %v", label, got, freshOrder)
					}
					for v := range want {
						if a, b := reused.Hops(topology.NodeID(v)), fresh.Hops(topology.NodeID(v)); a != b {
							t.Fatalf("%s: Hops(%d) = %d on the reused search, %d on a fresh one", label, v, a, b)
						}
					}
				}
			}
		}
	}
}

// checkFrom checks one From's result against the Dijkstra's hop counts:
// exactly the nodes within maxHops are reached, each once, src first, in
// non-decreasing hops, and Hops agrees with the Dijkstra where reached and
// is -1 elsewhere.
func checkFrom(t *testing.T, label string, g *topology.Graph, s *topology.Search, order []topology.NodeID,
	src topology.NodeID, maxHops int, want []int) {
	t.Helper()
	within := func(h int) bool { return h >= 0 && (maxHops < 0 || h <= maxHops) }
	if len(order) == 0 || order[0] != src {
		t.Fatalf("%s: reached %v, want %d first", label, order, src)
	}
	seen := make([]bool, g.NumNodes())
	prev := 0
	for _, v := range order {
		if seen[v] {
			t.Fatalf("%s: node %d reached twice", label, v)
		}
		seen[v] = true
		if h := s.Hops(v); h < prev {
			t.Fatalf("%s: node %d at %d hops follows one at %d", label, v, h, prev)
		} else {
			prev = h
		}
	}
	for v, h := range want {
		if within(h) != seen[v] {
			t.Fatalf("%s: node %d reached = %v, Dijkstra hops %d", label, v, seen[v], h)
		}
		got := s.Hops(topology.NodeID(v))
		if !within(h) {
			h = -1
		}
		if got != h {
			t.Fatalf("%s: Hops(%d) = %d, want %d", label, v, got, h)
		}
	}
}

// TestComponentsAgreeWithReachability: over random down-sets of whole
// trunks, two nodes share a label exactly when the Dijkstra reaches one
// from the other, and labels count up from 0 in order of each component's
// lowest node ID.
func TestComponentsAgreeWithReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(1987))
	for _, ng := range searchGraphs() {
		name, g := ng.name, ng.g
		for trial, p := range []float64{0, 0.2, 0.5, 0.8} {
			down := make([]bool, g.NumTrunks())
			for tr := range down {
				down[tr] = rng.Float64() < p
			}
			up := func(l topology.LinkID) bool { return !down[g.Link(l).Trunk] }
			comp := topology.Components(g, up)
			next := 0
			for v, c := range comp {
				switch {
				case c == next:
					next++
				case c < 0 || c > next:
					t.Fatalf("%s trial %d: node %d labelled %d before any node labelled %d", name, trial, v, c, next)
				}
			}
			for u := range comp {
				hops := unitHops(g, topology.NodeID(u), up)
				for v, h := range hops {
					if (comp[u] == comp[v]) != (h >= 0) {
						t.Fatalf("%s trial %d: nodes %d and %d labelled %d and %d, Dijkstra hops %d",
							name, trial, u, v, comp[u], comp[v], h)
					}
				}
			}
		}
	}
}
