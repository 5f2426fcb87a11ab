package spf

import (
	"testing"

	"repro/internal/topology"
)

// BenchmarkMultipathDAG measures one equal-cost DAG build over a tree on the
// ARPANET graph, what a multipath PSN does at its first lookup after an update
// (§4.5). bench/micro.go times the single-path Dijkstra and its incremental
// repair, not this.
func BenchmarkMultipathDAG(b *testing.B) {
	g := topology.Arpanet()
	cost := func(topology.LinkID) float64 { return 30 }
	tree := Compute(g, 0, cost)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDAG(tree, cost, 15)
	}
}
