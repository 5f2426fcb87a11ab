package node

import (
	"fmt"
	"testing"

	"repro/internal/flooding"
	"repro/internal/spf"
	"repro/internal/topology"
)

// TestAuditConvergence holds AuditConvergence to each of its clauses on a
// four-PSN line whose routers are fed by hand: within a component, a PSN that
// missed an origin's latest update, or that believes a cost other than the one
// the link's origin holds, is reported; across a cut, neither is; nor while
// a copy of that origin's update is still in flight, whatever else is. Per-
// origin counts that miss a copy the engine holds are reported first.
func TestAuditConvergence(t *testing.T) {
	g := topology.Line(4, topology.T56) // N0 - N1 - N2 - N3
	var n1n2 topology.LinkID
	for _, l := range g.Out(1) {
		if g.Link(l).To == 2 {
			n1n2 = l
		}
	}
	none := func(topology.LinkID) bool { return false }
	cut := func(l topology.LinkID) bool { return g.Link(l).Trunk == 2 } // N2 - N3
	for _, tc := range []struct {
		name string
		down func(topology.LinkID) bool
		lag  topology.NodeID // misses N0's second update
		bent topology.NodeID // holds N1's first update with N1->N2 at 5
		busy topology.NodeID // has a copy of an update in flight
		lost int             // copies the engine holds that the counts miss
		want string          // "" for converged
	}{
		{"converged", none, topology.NoNode, topology.NoNode, topology.NoNode, 0, ""},
		{"stale update", none, 3, topology.NoNode, topology.NoNode, 0, "PSN N3 holds update 1 from N0, which last flooded update 2"},
		{"stale cost", none, topology.NoNode, 2, topology.NoNode, 0,
			fmt.Sprintf("PSN N2 believes cost 5 for link %d (N1->N2), last flooded 1", n1n2)},
		{"stale update beside a cut", cut, 2, topology.NoNode, topology.NoNode, 0, "PSN N2 holds update 1 from N0, which last flooded update 2"},
		{"stale update across a cut", cut, 3, topology.NoNode, topology.NoNode, 0, ""},
		{"stale cost across a cut", cut, topology.NoNode, 3, topology.NoNode, 0, ""},
		{"stale update in flight", none, 3, topology.NoNode, 0, 0, ""},
		{"stale cost in flight", none, topology.NoNode, 2, 1, 0, ""},
		{"stale update, another origin in flight", none, 3, topology.NoNode, 1, 0, "PSN N3 holds update 1 from N0, which last flooded update 2"},
		{"stale cost, another origin in flight", none, topology.NoNode, 2, 0, 0,
			fmt.Sprintf("PSN N2 believes cost 5 for link %d (N1->N2), last flooded 1", n1n2)},
		{"counts miss a copy", none, topology.NoNode, topology.NoNode, 1, 1,
			"the per-origin counts hold 1 update copies in flight; the engine holds 2"},
	} {
		costs := make([]float64, g.NumLinks())
		for i := range costs {
			costs[i] = 1
		}
		tab := spf.NewTable(g, []topology.NodeID{0, 1, 2, 3}, costs)
		routers := make([]*spf.IncrementalRouter, g.NumNodes())
		for i := range routers {
			routers[i] = tab.Router(i)
		}
		// update is o's update seq: each of o's links at cost c, N1->N2 at c12.
		update := func(o topology.NodeID, seq uint64, c, c12 float64) *flooding.Update {
			out := g.Out(o)
			cs := make([]float64, len(out))
			for i, l := range out {
				if cs[i] = c; l == n1n2 {
					cs[i] = c12
				}
			}
			return flooding.NewUpdate(o, seq, out, cs)
		}
		first := make([]*flooding.Update, g.NumNodes())
		for o := range first {
			first[o] = update(topology.NodeID(o), 1, 1, 1)
		}
		bent, second := update(1, 1, 1, 5), update(0, 2, 2, 2)
		for id, r := range routers {
			for o, u := range first {
				if topology.NodeID(id) == tc.bent && o == 1 {
					u = bent
				}
				r.Accept(u)
			}
			if topology.NodeID(id) != tc.lag {
				r.Accept(second)
			}
		}
		inFlight, held := make([]int, g.NumNodes()), tc.lost
		if tc.busy != topology.NoNode {
			inFlight[tc.busy] = 1
			held++
		}
		err := AuditConvergence(g, routers, tc.down, inFlight, held)
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
			t.Errorf("%s: AuditConvergence = %v, want %q", tc.name, err, tc.want)
		}
	}
}
