// Package spf implements the route computation of the May 1979 ARPANET
// algorithm (§2.2): each PSN knows the full topology and every link's cost,
// and builds a shortest-path-first (Dijkstra) tree to all other nodes. The
// revised metric changed none of this — only the link costs changed — so
// this package is shared by D-SPF, HN-SPF and min-hop routing.
//
// IncrementalRouter additionally implements the PSN's *incremental* SPF:
// "the algorithm... attempts to perform only incremental adjustments
// necessitated by a link cost change, e.g., if a routing update reports an
// increase in the cost for a link not in the tree, the algorithm does not
// recompute any part of the tree." A Table holds the routers one goroutine
// drives in 12·N bytes per PSN, the SPF tree, and once for all of them the
// link-cost database §2.2 asks for: per origin the flooded updates still
// held — by reference, never copied — and a bitset of which routers hold each.
package spf

import (
	"math"

	"repro/internal/topology"
)

// Infinite is the distance reported for unreachable nodes.
var Infinite = math.Inf(1)

// CostFunc returns the current cost of a link. Costs must be positive.
type CostFunc func(topology.LinkID) float64

// Tree is a shortest-path tree rooted at one PSN. It answers next-hop,
// distance and path queries toward every destination. A forwarding table
// names one of the PSN's own lines, so the tree stores line numbers
// (topology.Graph.OutLine/InLine, 16 bits; AddTrunk guards the width), not
// link IDs: 12 bytes a node, and a Table holds one tree per router.
type Tree struct {
	g       *topology.Graph
	root    topology.NodeID
	dist    []float64
	parent  []uint16 // by node: the line its shortest path enters it on, an index into g.In(node)
	nextHop []uint16 // by node: the root's line toward it, an index into g.Out(root)
}

// noLine marks the root and unreachable nodes; topology.MaxLines keeps it
// out of the line numbers.
const noLine = math.MaxUint16

// Compute runs Dijkstra's algorithm from root over g with the given link
// costs. Every link's cost is evaluated and validated once per computation;
// a non-positive or non-finite cost panics: the metrics all guarantee a
// positive floor ("the bias term... effectively serves to prevent an idle
// line from reporting a zero delay value").
//
// Tie-breaking is deterministic: among equal-cost paths the one whose last
// relaxation came first wins, and relaxations scan links in ID order. The
// model layer relies on this determinism.
//
// The returned Tree is freshly allocated, never mutated afterwards and
// detached from the scratch that built it (holding the Tree keeps no
// Workspace alive); callers that run many computations should reuse a
// Workspace via ComputeInto instead.
func Compute(g *topology.Graph, root topology.NodeID, cost CostFunc) *Tree {
	var ws Workspace
	t := *ComputeInto(&ws, g, root, cost)
	return &t
}

// Dist returns the cost of the shortest path from the root to dst
// (Infinite if unreachable, 0 for the root itself).
func (t *Tree) Dist(dst topology.NodeID) float64 { return t.dist[dst] }

// Reachable reports whether dst is reachable from the root.
func (t *Tree) Reachable(dst topology.NodeID) bool { return !math.IsInf(t.dist[dst], 1) }

// NextHop returns the first link on the shortest path from the root to
// dst, or NoLink for the root itself and unreachable nodes. This is what
// the PSN's forwarding table contains — single-path, destination-based.
func (t *Tree) NextHop(dst topology.NodeID) topology.LinkID {
	if i := t.NextLine(dst); i >= 0 {
		return t.g.Out(t.root)[i]
	}
	return topology.NoLink
}

// NextLine is NextHop as the forwarding table stores it: the index in
// Out(root) of the line toward dst, or -1. The engines keep their lines in
// that order and forward on it without going through the link ID.
func (t *Tree) NextLine(dst topology.NodeID) int {
	if l := t.nextHop[dst]; l != noLine {
		return int(l)
	}
	return -1
}

// Parent returns the link entering dst on its shortest path from the root.
func (t *Tree) Parent(dst topology.NodeID) topology.LinkID {
	if l := t.parent[dst]; l != noLine {
		return t.g.In(dst)[l]
	}
	return topology.NoLink
}

// Path returns the links of the shortest path from the root to dst in
// order, or nil if unreachable or dst is the root.
func (t *Tree) Path(dst topology.NodeID) []topology.LinkID {
	if dst == t.root || !t.Reachable(dst) {
		return nil
	}
	var rev []topology.LinkID
	for n := dst; n != t.root; {
		l := t.Parent(n)
		rev = append(rev, l)
		n = t.g.Link(l).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
