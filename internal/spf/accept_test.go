package spf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/flooding"
	"repro/internal/topology"
)

// wholeUpdate builds origin's routing update the way both engines do: the
// graph's own out-link slice and one fresh cost per link.
func wholeUpdate(g *topology.Graph, origin topology.NodeID, seq uint64, cost func(topology.LinkID) float64) *flooding.Update {
	out := g.Out(origin)
	costs := make([]float64, len(out))
	for i, l := range out {
		costs[i] = cost(l)
	}
	return flooding.NewUpdate(origin, seq, out, costs)
}

func sameTree(a, b *Tree) bool {
	for i := range a.dist {
		if a.dist[i] != b.dist[i] || a.parent[i] != b.parent[i] || a.nextHop[i] != b.nextHop[i] {
			return false
		}
	}
	return true
}

// Accept installs a whole update by reference; its twin gets the same
// changes one link at a time through Update. Small integer costs put ties
// everywhere, so the trees agree entry for entry only if Accept's repairs
// see the costs change in exactly the per-link order: links before the one
// under repair new, links after it old. (Publishing the new row before the
// repairs fails here on the first update that changes two links of one
// origin.) Stale and repeated sequence numbers must bounce off without a
// trace.
func TestAcceptMatchesPerLinkUpdates(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(8+rng.Intn(17), 3, seed)
		n, nl := g.NumNodes(), g.NumLinks()
		cur := make([]float64, nl)
		for i := range cur {
			cur[i] = float64(1 + rng.Intn(4))
		}
		byAccept := NewTable(g, allRoots(g), cur)
		byUpdate := NewTable(g, allRoots(g), cur)
		seqs := make([]uint64, n)
		ws := NewWorkspace()
		for step := 0; step < 60; step++ {
			origin := topology.NodeID(rng.Intn(n))
			out := g.Out(origin)
			changed := 0
			for changed < 2 && len(out) >= 2 {
				changed = 0
				for _, l := range out {
					c := float64(1 + rng.Intn(4))
					if rng.Intn(10) == 0 {
						c = 1e6 // outage-grade rise
					}
					if c != cur[l] {
						changed++
					}
					cur[l] = c
				}
			}
			seqs[origin] += uint64(1 + rng.Intn(3))
			u := wholeUpdate(g, origin, seqs[origin], func(l topology.LinkID) float64 { return cur[l] })
			stale := wholeUpdate(g, origin, seqs[origin]-uint64(rng.Intn(2)), func(topology.LinkID) float64 { return 7 })
			for i := 0; i < n; i++ {
				a, b := byAccept.Router(i), byUpdate.Router(i)
				if !a.Accept(u) {
					t.Fatalf("seed %d step %d router %d: fresh update %d/%d refused", seed, step, i, origin, u.Seq)
				}
				for j, l := range out {
					b.Update(l, u.Costs[j])
				}
				if !sameTree(a.Tree(), b.Tree()) {
					t.Fatalf("seed %d step %d router %d: Accept and per-link Update trees differ after update %d/%d %v",
						seed, step, i, origin, u.Seq, u.Costs)
				}
				_, inc, skipped, touched := a.Stats()
				if _, bi, bs, bt := b.Stats(); inc != bi || skipped != bs || touched != bt {
					t.Fatalf("seed %d step %d router %d: repair counters differ: accept %d/%d/%d, per-link %d/%d/%d",
						seed, step, i, inc, skipped, touched, bi, bs, bt)
				}
				if a.Accept(stale) || a.Accept(u) {
					t.Fatalf("seed %d step %d router %d: stale or repeated update accepted", seed, step, i)
				}
				if _, i2, s2, t2 := a.Stats(); i2 != inc || s2 != skipped || t2 != touched || !sameTree(a.Tree(), b.Tree()) {
					t.Fatalf("seed %d step %d router %d: a refused update touched the router", seed, step, i)
				}
				fresh := ComputeInto(ws, g, topology.NodeID(i), func(l topology.LinkID) float64 { return cur[l] })
				for d := 0; d < n; d++ {
					if a.Tree().Dist(topology.NodeID(d)) != fresh.Dist(topology.NodeID(d)) {
						t.Fatalf("seed %d step %d router %d: dist(%d) = %v, fresh Dijkstra says %v",
							seed, step, i, d, a.Tree().Dist(topology.NodeID(d)), fresh.Dist(topology.NodeID(d)))
					}
				}
				for _, l := range out {
					if a.Cost(l) != cur[l] {
						t.Fatalf("seed %d step %d router %d: Cost(%d) = %v, update said %v", seed, step, i, l, a.Cost(l), cur[l])
					}
				}
			}
		}
		st := byAccept.Stats()
		if want := int64(60 * n); st.Accepted != want || st.Duplicates != 2*want {
			t.Errorf("seed %d: table counted %d accepted, %d duplicates; want %d and %d", seed, st.Accepted, st.Duplicates, want, 2*want)
		}
		if st.Repairs == 0 || st.Skipped == 0 || st.Touched < st.Repairs {
			t.Errorf("seed %d: implausible repair counters %+v", seed, st)
		}
	}
}

// Two routers hold the same update by reference. A single-link Update on
// one of them must write a private clone: the other router's belief and the
// update itself stay as flooded. (Writing the installed row in place fails
// both checks.)
func TestSharedRowIsNeverWritten(t *testing.T) {
	g, ids := diamond()
	a := g.MustLookup("A")
	tab := NewTable(g, allRoots(g), unitCosts(g))
	r0, r1 := tab.Router(0), tab.Router(1)
	u := wholeUpdate(g, a, 1, func(topology.LinkID) float64 { return 5 })
	if !r0.Accept(u) || !r1.Accept(u) {
		t.Fatal("fresh update refused")
	}
	r0.Update(ids["ab"], 9)
	r0.Update(ids["ac"], 2)
	if r0.Cost(ids["ab"]) != 9 || r0.Cost(ids["ac"]) != 2 {
		t.Errorf("updating router reads %v/%v, want 9/2", r0.Cost(ids["ab"]), r0.Cost(ids["ac"]))
	}
	if r1.Cost(ids["ab"]) != 5 || r1.Cost(ids["ac"]) != 5 {
		t.Errorf("the other router's costs moved to %v/%v", r1.Cost(ids["ab"]), r1.Cost(ids["ac"]))
	}
	for i, c := range u.Costs {
		if c != 5 {
			t.Errorf("the flooded update was written: Costs[%d] = %v", i, c)
		}
	}
	// The clone keeps the sequence number it was cut from, and a newer
	// update replaces it like any other row.
	if r0.Accept(u) {
		t.Error("the update the private row was cloned from was accepted again")
	}
	if !r0.Accept(wholeUpdate(g, a, 2, func(topology.LinkID) float64 { return 3 })) || r0.Cost(ids["ab"]) != 3 {
		t.Errorf("newer update did not replace the private row: Cost(ab) = %v", r0.Cost(ids["ab"]))
	}
}

// An update must list exactly its origin's out-links in graph order — Accept
// indexes its costs by position — and says so by name otherwise.
func TestAcceptRejectsMisshapenUpdate(t *testing.T) {
	g, ids := diamond()
	r := NewIncrementalRouter(g, 0, unitCosts(g))
	for name, links := range map[string][]topology.LinkID{
		"short":       {ids["ab"]},
		"reordered":   {ids["ac"], ids["ab"]},
		"not its own": {ids["ab"], ids["bd"]},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "from node 0") || !strings.Contains(msg, "out-links") {
					t.Errorf("recovered %q, want the named shape panic", msg)
				}
			}()
			costs := make([]float64, len(links))
			for i := range costs {
				costs[i] = 2
			}
			r.Accept(flooding.NewUpdate(0, 1, links, costs))
			t.Error("Accept returned")
		})
	}
	// An origin the graph does not have indexes nothing either.
	for name, origin := range map[string]topology.NodeID{"origin past the graph": topology.NodeID(g.NumNodes()), "no origin": topology.NoNode} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				want := fmt.Sprintf("spf: update 7 from node %d: graph has %d nodes", origin, g.NumNodes())
				if msg, _ := recover().(string); msg != want {
					t.Errorf("recovered %q, want %q", msg, want)
				}
			}()
			r.Accept(flooding.NewUpdate(origin, 7, nil, nil))
			t.Error("Accept returned")
		})
	}
}
