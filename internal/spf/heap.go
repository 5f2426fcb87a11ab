package spf

import "repro/internal/topology"

// nodeHeap is a concrete binary min-heap of (node, dist) entries with lazy
// deletion. It replaces the earlier container/heap implementation so pushes
// and pops never box values through `any` and never go through interface
// dispatch — the heap is the inner loop of every SPF computation.
//
// The sift rules replicate container/heap exactly (strict-less comparisons,
// swap-with-last on pop), so the pop order among equal-distance entries —
// and therefore the deterministic tie-breaking documented on Compute — is
// identical to the previous implementation.
type nodeHeap struct {
	nodes []topology.NodeID
	dists []float64
}

// reset empties the heap, keeping its backing arrays for reuse.
func (h *nodeHeap) reset() {
	h.nodes = h.nodes[:0]
	h.dists = h.dists[:0]
}

func (h *nodeHeap) empty() bool { return len(h.nodes) == 0 }

// push inserts an entry and sifts it up.
// Allocates: heap storage grows to the topology high-watermark, then reuses
func (h *nodeHeap) push(n topology.NodeID, d float64) {
	h.nodes = append(h.nodes, n)
	h.dists = append(h.dists, d)
	j := len(h.nodes) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if h.dists[j] >= h.dists[parent] {
			break
		}
		h.swap(j, parent)
		j = parent
	}
}

// pop removes and returns the minimum-distance entry.
func (h *nodeHeap) pop() (topology.NodeID, float64) {
	last := len(h.nodes) - 1
	h.swap(0, last)
	h.down(0, last)
	n, d := h.nodes[last], h.dists[last]
	h.nodes = h.nodes[:last]
	h.dists = h.dists[:last]
	return n, d
}

func (h *nodeHeap) swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.dists[i], h.dists[j] = h.dists[j], h.dists[i]
}

// down sifts index i toward the leaves within h[:n].
func (h *nodeHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.dists[j2] < h.dists[j1] {
			j = j2
		}
		if h.dists[j] >= h.dists[i] {
			break
		}
		h.swap(i, j)
		i = j
	}
}
