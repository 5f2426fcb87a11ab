package spf

import (
	"math"

	"repro/internal/topology"
)

// This file implements the PSN's incremental SPF proper: instead of
// rerunning Dijkstra from scratch on every link-cost change, only the part
// of the tree the change can affect is repaired (§2.2: "The algorithm in
// the PSN is an incremental SPF algorithm that attempts to perform only
// incremental adjustments necessitated by a link cost change").
//
// Decreases grow a Dijkstra frontier from the improved endpoint; increases
// detach the subtree hanging off the changed tree link and re-attach it
// through the cheapest boundary edges (the classic two-phase repair). Both
// yield distances identical to a from-scratch computation; only the
// tie-breaking among equal-cost paths may differ, which routing is
// insensitive to.

// Table is the routing state of the PSNs one goroutine drives: every
// router's link-cost database and SPF tree — the 8·L + 16·N bytes per PSN
// §2.2 asks for — cut from four slabs, plus the one repair scratch its
// routers share. Every repair initializes what it reads of the scratch, so
// sharing never shows in a result; it does mean a Table and its routers
// belong to one goroutine.
type Table struct {
	g       *topology.Graph
	routers []IncrementalRouter

	// Repair scratch, reused across updates and routers so steady-state
	// repairs allocate nothing.
	pq    nodeHeap
	inSet []bool
	stack []topology.NodeID
}

// IncrementalRouter is one PSN's routing state: its view of every link's
// cost (identical at every PSN once flooding converges) and the SPF tree
// rooted at the PSN, repaired in place. It reports how many nodes each
// update touched — the PSN-CPU proxy used by the routing-overhead
// experiments.
type IncrementalRouter struct {
	tab   *Table
	root  topology.NodeID
	costs []float64 // this router's row of the table's cost slab
	tree  Tree      // rows of the table's tree slabs

	full        int64 // from-scratch computations (the boot)
	incremental int64 // in-place repairs
	skipped     int64 // updates provably without effect
	touched     int64 // total nodes visited by repairs
}

// NewTable boots one router per root from the same initial costs (copied).
// All trees are computed through one Workspace and copied out, so nothing a
// router holds aliases Dijkstra scratch.
func NewTable(g *topology.Graph, roots []topology.NodeID, costs []float64) *Table {
	nl, nn := g.NumLinks(), g.NumNodes()
	mustFitInt32(nn, nl)
	if len(costs) != nl {
		panic("spf: costs length mismatch")
	}
	for _, c := range costs {
		if !validCost(c) {
			panic("spf: link cost must be positive and finite")
		}
	}
	t := &Table{g: g, routers: make([]IncrementalRouter, len(roots))}
	costSlab := make([]float64, len(roots)*nl)
	dist := make([]float64, len(roots)*nn)
	parent := make([]int32, len(roots)*nn)
	nextHop := make([]int32, len(roots)*nn)
	var ws Workspace
	for i, root := range roots {
		r := &t.routers[i]
		r.tab, r.root, r.full = t, root, 1
		r.costs = costSlab[i*nl : (i+1)*nl : (i+1)*nl]
		copy(r.costs, costs)
		lo, hi := i*nn, (i+1)*nn
		r.tree = Tree{root: root, dist: dist[lo:hi:hi], parent: parent[lo:hi:hi], nextHop: nextHop[lo:hi:hi]}
		boot := ws.dijkstra(g, root, costs)
		copy(r.tree.dist, boot.dist)
		copy(r.tree.parent, boot.parent)
		copy(r.tree.nextHop, boot.nextHop)
	}
	return t
}

// Router returns the router booted for roots[i]. The pointer stays valid
// for the life of the table.
func (t *Table) Router(i int) *IncrementalRouter { return &t.routers[i] }

// NewIncrementalRouter creates an incremental router with explicit initial
// costs (copied): a Table of one.
func NewIncrementalRouter(g *topology.Graph, root topology.NodeID, costs []float64) *IncrementalRouter {
	return NewTable(g, []topology.NodeID{root}, costs).Router(0)
}

func validCost(c float64) bool {
	return c > 0 && !math.IsNaN(c) && !math.IsInf(c, 0)
}

// Tree returns the current SPF tree. It is mutated in place by updates;
// callers must re-read after Update.
func (r *IncrementalRouter) Tree() *Tree { return &r.tree }

// Cost returns the router's current belief about a link's cost.
func (r *IncrementalRouter) Cost(l topology.LinkID) float64 { return r.costs[l] }

// Stats returns the repair counters: full recomputations, incremental
// repairs, skipped updates, and total nodes touched by repairs.
func (r *IncrementalRouter) Stats() (full, incremental, skipped, touched int64) {
	return r.full, r.incremental, r.skipped, r.touched
}

// Recomputes returns the number of route computations of any kind (full or
// incremental) — the Table 1 "PSN CPU" proxy.
func (r *IncrementalRouter) Recomputes() int64 { return r.full + r.incremental }

// Skipped returns how many updates were absorbed without touching the tree.
func (r *IncrementalRouter) Skipped() int64 { return r.skipped }

// UpdateBatch applies several (link, cost) changes from one routing
// update, repairing the tree after each.
func (r *IncrementalRouter) UpdateBatch(links []topology.LinkID, costs []float64) {
	if len(links) != len(costs) {
		panic("spf: UpdateBatch length mismatch")
	}
	for i, l := range links {
		r.Update(l, costs[i])
	}
}

// Update applies one link-cost change, repairing the tree incrementally.
func (r *IncrementalRouter) Update(l topology.LinkID, newCost float64) {
	if !validCost(newCost) {
		panic("spf: link cost must be positive and finite")
	}
	old := r.costs[l]
	// lint:ignore floatexact change detection against the stored copy of this link's cost, not recomputed arithmetic
	if newCost == old {
		return
	}
	r.costs[l] = newCost
	link := r.tab.g.Link(l)
	if newCost < old {
		r.repairDecrease(link, newCost)
	} else {
		r.repairIncrease(link)
	}
}

// repairDecrease handles a cost drop on (u,v): if it creates a shorter
// path to v, grow a Dijkstra frontier from v until no further improvement.
func (r *IncrementalRouter) repairDecrease(link topology.Link, c float64) {
	t := &r.tree
	du := t.dist[link.From]
	if math.IsInf(du, 1) || du+c >= t.dist[link.To] {
		r.skipped++
		return
	}
	r.incremental++
	pq := &r.tab.pq
	pq.reset()
	r.improve(link.To, du+c, link.ID, pq)
	r.relaxFrontier(pq, nil)
}

// improve lowers a node's distance and fixes its parent/next-hop.
func (r *IncrementalRouter) improve(n topology.NodeID, d float64, via topology.LinkID, pq *nodeHeap) {
	t := &r.tree
	t.dist[n] = d
	t.parent[n] = int32(via)
	from := r.tab.g.Link(via).From
	if from == r.root {
		t.nextHop[n] = int32(via)
	} else {
		t.nextHop[n] = t.nextHop[from]
	}
	pq.push(n, d)
}

// relaxFrontier runs Dijkstra from an initialized frontier. If inSet is
// non-nil, only nodes with inSet true may be improved (used by the
// increase repair, which must not touch the intact part of the tree).
func (r *IncrementalRouter) relaxFrontier(pq *nodeHeap, inSet []bool) {
	t, g := &r.tree, r.tab.g
	for !pq.empty() {
		// Lazy deletion: skip stale entries.
		top, topDist := pq.pop()
		if topDist > t.dist[top] {
			continue
		}
		r.touched++
		for _, lid := range g.Out(top) {
			to := g.Link(lid).To
			if inSet != nil && !inSet[to] {
				continue
			}
			if d := t.dist[top] + r.costs[lid]; d < t.dist[to] {
				r.improve(to, d, lid, pq)
			}
		}
	}
}

// repairIncrease handles a cost rise on (u,v). If (u,v) is not v's parent
// link the tree is unaffected. Otherwise the subtree rooted at v is
// detached and re-attached through its cheapest boundary edges.
// Allocates: repair scratch (inSet, stack) grows to the affected-set high-watermark, then reuses
func (r *IncrementalRouter) repairIncrease(link topology.Link) {
	t, tab, g := &r.tree, r.tab, r.tab.g
	if t.parent[link.To] != int32(link.ID) {
		r.skipped++
		return
	}
	r.incremental++

	// Phase 1: collect the detached subtree (descendants of v, including v).
	n := g.NumNodes()
	if len(tab.inSet) != n {
		tab.inSet = make([]bool, n)
	}
	inSet := tab.inSet
	for i := range inSet {
		inSet[i] = false
	}
	stack := tab.stack[:0]
	inSet[link.To] = true
	stack = append(stack, link.To)
	// children: nodes whose parent link originates at a set member. A
	// simple pass per pop keeps this O(|A|·degree) without child lists.
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range g.Out(x) {
			child := g.Link(lid).To
			if !inSet[child] && t.parent[child] == int32(lid) {
				inSet[child] = true
				stack = append(stack, child)
			}
		}
	}
	tab.stack = stack // keep the grown capacity for the next repair

	// Phase 2: reset the detached nodes and seed the frontier with the
	// best edge from the intact region into each detached node (including
	// the raised link itself, which may still be the best way in).
	for i := range inSet {
		if inSet[i] {
			t.dist[i] = Infinite
			t.parent[i] = noLink
			t.nextHop[i] = noLink
		}
	}
	pq := &tab.pq
	pq.reset()
	for i := range inSet {
		if !inSet[i] {
			continue
		}
		node := topology.NodeID(i)
		for _, lid := range g.In(node) {
			from := g.Link(lid).From
			if inSet[from] || math.IsInf(t.dist[from], 1) {
				continue
			}
			if d := t.dist[from] + r.costs[lid]; d < t.dist[node] {
				r.improve(node, d, lid, pq)
			}
		}
	}

	// Phase 3: Dijkstra restricted to the detached set.
	r.relaxFrontier(pq, inSet)
}
