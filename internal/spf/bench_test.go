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

// BenchmarkTableBoot measures NewTable over every root of hier:32x32, the
// from-scratch part of a 1,024-node adaptive boot. HN-SPF's idle costs never
// tie there, so every tree comes off the bucket queue; min-hop's unit costs
// tie almost everywhere, so almost every tree is the heap's.
func BenchmarkTableBoot(b *testing.B) {
	g := topology.Hierarchical(32, 32, 1987)
	roots := allRoots(g)
	for _, kind := range []string{"hnspf", "minhop"} {
		costs := bootCosts(g, kind)
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableSink = NewTable(g, roots, costs)
			}
		})
	}
}

var tableSink *Table
