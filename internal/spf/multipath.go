package spf

import (
	"math"

	"repro/internal/topology"
)

// Multipath SPF: §4.5 notes that single-path routing "is fairly
// ineffective" when traffic is dominated by a few large flows and points
// at multi-path routing (the paper's reference [6]) as the remedy. This
// file provides the all-shortest-paths DAG: for each destination, every
// first-hop link that lies on some minimum-cost path. A forwarder that
// spreads packets across those next hops shares load *within* a single
// flow, which the HNM alone cannot do.

// tieEps absorbs float noise when comparing path costs.
const tieEps = 1e-9

// DAG holds, for one root, the set of near-equal-cost first-hop links
// toward every node.
type DAG struct {
	nextHops [][]topology.LinkID
}

// ComputeDAG builds the near-shortest-paths first-hop sets from the tree's
// root: a link is usable if it lies on a path at most tol more expensive than
// the minimum. The tree must be a shortest-path tree under cost — a fresh
// Compute, or an IncrementalRouter's tree with the router's Cost — since its
// distances are read, not recomputed; the DAG keeps none of them. With
// adaptive metrics two parallel paths are never *exactly* tied, so pure
// equal-cost splitting would never fire; a tolerance makes "equal" mean
// "within measurement noise".
//
// Loop freedom: as long as tol is strictly less than half the minimum
// link cost, no forwarding cycle can consist entirely of tolerated links
// (summing the tightness inequalities around a k-cycle requires the
// cycle's cost ≤ k·tol < its own cost). Every metric's floor exceeds 2×
// the tolerances used by the simulator.
func ComputeDAG(tree *Tree, cost CostFunc, tol float64) *DAG {
	if tol < 0 {
		panic("spf: negative multipath tolerance")
	}
	g, root, dist := tree.g, tree.root, tree.dist
	n := g.NumNodes()
	d := &DAG{nextHops: make([][]topology.LinkID, n)}

	// tight reports whether link l lies on some tolerated path from root.
	tight := func(l topology.Link) bool {
		du := dist[l.From]
		if math.IsInf(du, 1) {
			return false
		}
		return du+cost(l.ID) <= dist[l.To]+tol+tieEps*(1+dist[l.To])
	}

	// For each destination, walk the tight-edge DAG backwards from dst and
	// collect the root's tight out-links that reach it.
	mark := make([]bool, n)
	stack := make([]topology.NodeID, 0, n)
	for dst := 0; dst < n; dst++ {
		dest := topology.NodeID(dst)
		if dest == root || !tree.Reachable(dest) {
			continue
		}
		for i := range mark {
			mark[i] = false
		}
		mark[dest] = true
		stack = append(stack[:0], dest)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, lid := range g.In(x) {
				l := g.Link(lid)
				if !mark[l.From] && tight(l) {
					mark[l.From] = true
					stack = append(stack, l.From)
				}
			}
		}
		for _, lid := range g.Out(root) {
			l := g.Link(lid)
			if mark[l.To] && tight(l) {
				d.nextHops[dst] = append(d.nextHops[dst], lid)
			}
		}
	}
	return d
}

// NextHops returns every first-hop link on a minimum-cost path to dst
// (nil for the root itself and unreachable nodes). The caller must not
// modify the slice.
func (d *DAG) NextHops(dst topology.NodeID) []topology.LinkID { return d.nextHops[dst] }
