package shard

// Deterministic graph partitioning for the conservative-sync runner. The
// goal is not a minimal cut but a *slow* cut: the conservative lookahead is
// the minimum propagation delay over cut trunks, so the partitioner grows
// regions along high-affinity (short-delay) trunks and leaves the long-haul
// trunks on the boundary. On topology.Hierarchical graphs this reliably
// cuts only backbone trunks (>= 8 ms), a lookahead thousands of ticks wide.

import (
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Partition assigns every node of g to one of shards parts, deterministically:
// the result depends only on the graph, never on map iteration or scheduling.
//
// Greedy region growing: each shard seeds at the lowest-ID unassigned node
// and repeatedly absorbs the unassigned node with the highest accumulated
// affinity to the shard (affinity of a trunk = 1/propDelay, so short intra-
// region trunks pull much harder than long-haul ones), until the shard
// reaches its balanced size ceil(remaining/remainingShards). Ties on
// affinity break toward the lowest node ID via a strict > comparison over
// an ascending scan.
func Partition(g *topology.Graph, shards int) []int {
	n := g.NumNodes()
	part := make([]int, n)
	if shards <= 1 {
		return part
	}
	for i := range part {
		part[i] = -1
	}
	gain := make([]float64, n)
	assigned := 0
	for s := 0; s < shards && assigned < n; s++ {
		for i := range gain {
			gain[i] = 0
		}
		remShards := shards - s
		size := 0
		target := (n - assigned + remShards - 1) / remShards
		for size < target && assigned < n {
			pick := -1
			for v := 0; v < n; v++ {
				if part[v] >= 0 {
					continue
				}
				if pick < 0 || gain[v] > gain[pick] {
					pick = v
				}
			}
			part[pick] = s
			assigned++
			size++
			for _, lid := range g.Out(topology.NodeID(pick)) {
				l := g.Link(lid)
				if part[l.To] < 0 {
					gain[l.To] += affinity(l)
				}
			}
		}
	}
	return part
}

// affinity weights a trunk for region growing: the reciprocal of its
// propagation delay, clamped away from zero.
func affinity(l topology.Link) float64 {
	d := l.PropDelay
	if d < 1e-6 {
		d = 1e-6
	}
	return 1 / d
}

// CutLookahead returns the conservative lookahead for a partition: the
// minimum node.HopLatency over every link whose endpoints live in different
// parts. found is false when no link is cut (single shard, or a disconnected
// assignment).
func CutLookahead(g *topology.Graph, part []int) (sim.Time, bool) {
	var min sim.Time
	found := false
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if part[l.From] == part[l.To] {
			continue
		}
		d := node.HopLatency(l)
		if !found || d < min {
			min, found = d, true
		}
	}
	return min, found
}
