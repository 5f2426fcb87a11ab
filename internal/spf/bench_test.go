package spf

import (
	"testing"

	"repro/internal/topology"
)

// BenchmarkMultipathDAG measures one equal-cost DAG build on the ARPANET
// graph, the per-update work of a multipath PSN (§4.5). bench/micro.go
// times the single-path Dijkstra and its incremental repair, not this.
func BenchmarkMultipathDAG(b *testing.B) {
	g := topology.Arpanet()
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = 30
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDAG(g, 0, func(l topology.LinkID) float64 { return costs[l] }, 15)
	}
}
