package check

// Large-graph SPF oracle: the campaign's differential trials top out around
// 30 nodes, so scale bugs — heap-key overflow, quadratic repair paths,
// tie-break drift that only materializes with thousands of equal-cost
// candidates — never meet the oracle. This test runs one incremental-vs-
// fresh differential on the 1024-node hierarchical topology the sharded
// runner simulates: every node holds an incremental router, a stream of
// cost changes (including outages and repairs) hits all of them, sampled
// roots are verified bit-exactly against from-scratch Dijkstra after every
// change, and hop-by-hop forwarding over all pairs is checked loop-free at
// the end.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/spf"
	"repro/internal/topology"
)

func TestLargeGraphSPFOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node SPF differential skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260807))
	g := topology.Hierarchical(32, 32, 77)
	n := g.NumNodes()
	costs := GenCosts(rng, g, true) // tie-rich small-integer regime
	routers, cur := buildRouters(g, costs, IncrementalFactory)

	sampled := make([]topology.NodeID, 0, 8)
	for len(sampled) < 8 {
		sampled = append(sampled, topology.NodeID(rng.Intn(n)))
	}
	ws := spf.NewWorkspace()
	costFn := func(l topology.LinkID) float64 { return cur[l] }
	verifySampled := func(step int) {
		t.Helper()
		for _, root := range sampled {
			fresh := spf.ComputeInto(ws, g, root, costFn)
			for dst := 0; dst < n; dst++ {
				got := routers[root].Dist(topology.NodeID(dst))
				want := fresh.Dist(topology.NodeID(dst))
				// Bit-exact differential: incremental SPF must match fresh Dijkstra
				if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
					t.Fatalf("step %d root %d: dist to %d = %v, fresh Dijkstra says %v",
						step, root, dst, got, want)
				}
			}
		}
	}

	verifySampled(0)
	down := make(map[topology.LinkID]bool)
	for step := 1; step <= 24; step++ {
		l := topology.LinkID(rng.Intn(g.NumLinks()))
		var c float64
		switch {
		case down[l]:
			c = GenCost(rng, true)
			delete(down, l)
		case rng.Intn(4) == 0:
			c = OutageCost
			down[l] = true
		default:
			c = GenCost(rng, true)
		}
		applyOp(routers, cur, SPFOp{Link: l, Cost: c})
		verifySampled(step)
	}

	// Loop freedom over every (src, dst) pair, against each node's own
	// incremental tree — the property the whole network relies on.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || math.IsInf(routers[src].Dist(topology.NodeID(dst)), 1) {
				continue
			}
			at := topology.NodeID(src)
			for hops := 0; at != topology.NodeID(dst); hops++ {
				if hops > n {
					t.Fatalf("forwarding loop from %d to %d", src, dst)
				}
				next := routers[at].NextHop(topology.NodeID(dst))
				if next == topology.NoLink {
					t.Fatalf("forwarding from %d to %d strands at %d", src, dst, at)
				}
				at = g.Link(next).To
			}
		}
	}
}
