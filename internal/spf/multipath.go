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

// DAG holds, for one root, the distance to every node and the set of
// near-equal-cost first-hop links toward it.
type DAG struct {
	root     topology.NodeID
	dist     []float64
	nextHops [][]topology.LinkID
}

// ComputeDAG builds the near-shortest-paths first-hop sets from root: a
// link is usable if it lies on a path at most tol more expensive than the
// minimum. With adaptive metrics two parallel paths are never *exactly*
// tied, so pure equal-cost splitting would never fire; a tolerance makes
// "equal" mean "within measurement noise".
//
// Loop freedom: as long as tol is strictly less than half the minimum
// link cost, no forwarding cycle can consist entirely of tolerated links
// (summing the tightness inequalities around a k-cycle requires the
// cycle's cost ≤ k·tol < its own cost). Every metric's floor exceeds 2×
// the tolerances used by the simulator.
func ComputeDAG(g *topology.Graph, root topology.NodeID, cost CostFunc, tol float64) *DAG {
	if tol < 0 {
		panic("spf: negative multipath tolerance")
	}
	tree := Compute(g, root, cost) // distances (and cost validation)
	n := g.NumNodes()
	d := &DAG{root: root, dist: tree.dist, nextHops: make([][]topology.LinkID, n)}

	// tight reports whether link l lies on some tolerated path from root.
	tight := func(l topology.Link) bool {
		du := d.dist[l.From]
		if math.IsInf(du, 1) {
			return false
		}
		return du+cost(l.ID) <= d.dist[l.To]+tol+tieEps*(1+d.dist[l.To])
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

// Dist returns the minimum cost from the root to dst.
func (d *DAG) Dist(dst topology.NodeID) float64 { return d.dist[dst] }

// NextHops returns every first-hop link on a minimum-cost path to dst
// (nil for the root itself and unreachable nodes). The caller must not
// modify the slice.
func (d *DAG) NextHops(dst topology.NodeID) []topology.LinkID { return d.nextHops[dst] }

// MultipathRouter is the PSN routing state for equal-cost multipath
// forwarding: the cost database plus the first-hop DAG, rebuilt on any
// effective cost change.
type MultipathRouter struct {
	g          *topology.Graph
	root       topology.NodeID
	costs      []float64
	tol        float64
	dag        *DAG
	recomputes int64
}

// NewMultipathRouter creates a router with explicit initial costs (copied)
// and the near-equality tolerance passed to ComputeDAG.
func NewMultipathRouter(g *topology.Graph, root topology.NodeID, costs []float64, tol float64) *MultipathRouter {
	if len(costs) != g.NumLinks() {
		panic("spf: costs length mismatch")
	}
	r := &MultipathRouter{
		g:     g,
		root:  root,
		costs: append([]float64(nil), costs...),
		tol:   tol,
	}
	r.recompute()
	return r
}

func (r *MultipathRouter) recompute() {
	r.recomputes++
	r.dag = ComputeDAG(r.g, r.root, func(l topology.LinkID) float64 { return r.costs[l] }, r.tol)
}

// UpdateBatch applies several (link, cost) changes, recomputing the DAG at
// most once.
func (r *MultipathRouter) UpdateBatch(links []topology.LinkID, costs []float64) {
	if len(links) != len(costs) {
		panic("spf: UpdateBatch length mismatch")
	}
	changed := false
	for i, l := range links {
		c := costs[i]
		if !validCost(c) {
			panic("spf: link cost must be positive and finite")
		}
		// Change detection against the stored copy of this link's cost, not recomputed arithmetic
		if r.costs[l] != c {
			r.costs[l] = c
			changed = true
		}
	}
	if changed {
		r.recompute()
	}
}

// NextHops returns the equal-cost first hops toward dst.
func (r *MultipathRouter) NextHops(dst topology.NodeID) []topology.LinkID {
	return r.dag.NextHops(dst)
}

// Recomputes returns the number of DAG computations.
func (r *MultipathRouter) Recomputes() int64 { return r.recomputes }

// Cost returns the router's current belief about a link's cost.
func (r *MultipathRouter) Cost(l topology.LinkID) float64 { return r.costs[l] }
