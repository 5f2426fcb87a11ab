package check

import (
	"math"

	"repro/internal/topology"
)

// bellmanFordDist computes single-source shortest distances by naive
// repeated edge relaxation. It is deliberately written from the textbook —
// independent of internal/spf (heap Dijkstra) — so that it can serve as a
// second opinion: an algorithmic bug would have to be reproduced here, in
// a different algorithm, to go unnoticed.
func bellmanFordDist(g *topology.Graph, root topology.NodeID, costs []float64) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	links := g.Links()
	for round := 0; round < n-1; round++ {
		changed := false
		for _, l := range links {
			du := dist[l.From]
			if math.IsInf(du, 1) {
				continue
			}
			if d := du + costs[l.ID]; d < dist[l.To] {
				dist[l.To] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
