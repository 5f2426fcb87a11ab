package spf

import "repro/internal/topology"

// Workspace holds the scratch state of one SPF computation — the result
// arrays, the settled set, the per-link cost cache and the priority queue —
// so the repeated Dijkstras of the fluid model and the checker run without
// allocating. A Workspace may be reused across graphs of different sizes;
// ComputeInto re-dimensions the arrays as needed. It is not safe for
// concurrent use: give each goroutine its own Workspace.
type Workspace struct {
	tree    Tree
	settled []bool
	costs   []float64
	pq      nodeHeap
}

// NewWorkspace returns an empty workspace. The zero value is also valid.
func NewWorkspace() *Workspace { return &Workspace{} }

// ComputeInto is Compute with caller-provided scratch state: the returned
// Tree is owned by the workspace and is valid only until the next
// ComputeInto on the same workspace. Results are identical to Compute —
// including tie-breaking — regardless of what the workspace previously held.
//
// Each link's cost is evaluated and validated exactly once per computation,
// before the relaxation loop runs; like Compute it panics on a non-positive
// or non-finite cost, even for links the search would never have scanned.
func ComputeInto(ws *Workspace, g *topology.Graph, root topology.NodeID, cost CostFunc) *Tree {
	nl := g.NumLinks()
	ws.costs = growFloats(ws.costs, nl)
	for li := 0; li < nl; li++ {
		c := cost(topology.LinkID(li))
		if !validCost(c) {
			panic("spf: link cost must be positive and finite")
		}
		ws.costs[li] = c
	}
	return ws.dijkstra(g, root, ws.costs)
}

// dijkstra is the computation proper over an already validated cost array
// (one entry per link), which it only reads.
func (ws *Workspace) dijkstra(g *topology.Graph, root topology.NodeID, costs []float64) *Tree {
	nl, n := g.NumLinks(), g.NumNodes()
	t := &ws.tree
	t.g, t.root = g, root
	t.dist = growFloats(t.dist, n)
	t.parent = growLines(t.parent, n)
	t.nextHop = growLines(t.nextHop, n)
	ws.settled = growBools(ws.settled, n)
	for i := 0; i < n; i++ {
		t.dist[i] = Infinite
		t.parent[i] = noLine
		t.nextHop[i] = noLine
		ws.settled[i] = false
	}
	t.dist[root] = 0

	pq := &ws.pq
	pq.reset()
	// Worst case one push per link plus the root (pushes only happen on a
	// strict improvement, at most once per link): pre-sizing keeps the whole
	// computation allocation-free.
	if cap(pq.nodes) < nl+1 {
		pq.nodes = make([]topology.NodeID, 0, nl+1) // pre-sized once per topology high-watermark
		pq.dists = make([]float64, 0, nl+1)         // pre-sized once per topology high-watermark
	}
	pq.push(root, 0)
	for !pq.empty() {
		u, _ := pq.pop()
		if ws.settled[u] {
			continue
		}
		ws.settled[u] = true
		du := t.dist[u]
		for i, lid := range g.Out(u) {
			v := g.Link(lid).To
			if ws.settled[v] {
				continue
			}
			if d := du + costs[lid]; d < t.dist[v] {
				t.dist[v] = d
				t.parent[v] = uint16(g.InLine(lid))
				if u == root {
					t.nextHop[v] = uint16(i)
				} else {
					t.nextHop[v] = t.nextHop[u]
				}
				pq.push(v, d)
			}
		}
	}
	return t
}

// growFloats returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified.
// Allocates: workspace doubling to the topology high-watermark is amortized
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// Allocates: workspace doubling to the topology high-watermark is amortized
func growLines(s []uint16, n int) []uint16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint16, n)
}

// Allocates: workspace doubling to the topology high-watermark is amortized
func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
