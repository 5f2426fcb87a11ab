package spf

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/topology"
)

func allRoots(g *topology.Graph) []topology.NodeID {
	roots := make([]topology.NodeID, g.NumNodes())
	for i := range roots {
		roots[i] = topology.NodeID(i)
	}
	return roots
}

// A table keeps, per PSN, its tree — 12·N bytes: a float64 distance and two
// 16-bit line numbers a node — and, once for all of them, the database §2.2
// gives each: the boot costs, 8·L, and per origin a version list with room for three
// (24 + 3·24 bytes), two holder sets of ⌈n/64⌉ words and their free-list
// entries (2·8·⌈n/64⌉ + 8). Nothing else: no row of pointers per router, no
// per-link cost copy, no boot Workspace, no per-router repair scratch. The
// runtime twin of TestSteadyStateZeroAllocs for retained memory.
func TestTableRetainsOnlyTheModel(t *testing.T) {
	g := topology.Hierarchical(16, 16, 3)
	costs := unitCosts(g)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewTable(g, allRoots(g), costs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	n, l := g.NumNodes(), g.NumLinks()
	perOrigin := 24 + 3*24 + 2*8*((n+63)/64) + 8
	model := float64(n*12*n + 8*l + n*perOrigin)
	got := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("%d routers, %d links: %.0f B retained, model %.0f B (%.3fx), %.0f B per PSN against 12N = %d",
		n, l, got, model, got/model, got/float64(n), 12*n)
	if got > 1.10*model {
		t.Errorf("table retains %.0f B for %d routers, want <= 1.10 x (n·12N + 8L + %d·N) = %.0f B", got, n, perOrigin, 1.10*model)
	}
	if tab.Router(n-1).Tree().root != topology.NodeID(n-1) {
		t.Error("last router is not rooted at the last node")
	}
}

// Routers of one table share the repair scratch. Give every router its own
// random update stream, interleaved round-robin so each repair starts from
// scratch another router left dirty, and require every tree to equal a
// fresh Dijkstra over that router's own costs after every round.
func TestTableSharedScratchDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(10+rng.Intn(20), 3, seed)
		n, nl := g.NumNodes(), g.NumLinks()
		base := make([]float64, nl)
		for i := range base {
			base[i] = float64(1 + rng.Intn(9))
		}
		tab := NewTable(g, allRoots(g), base)
		cur := make([][]float64, n)
		for i := range cur {
			cur[i] = append([]float64(nil), base...)
		}
		ws := NewWorkspace()
		for round := 0; round < 40; round++ {
			for i := 0; i < n; i++ {
				l := topology.LinkID(rng.Intn(nl))
				c := float64(1 + rng.Intn(9))
				if rng.Intn(8) == 0 {
					c = 1e6 // outage-grade rise: detaches a whole subtree
				}
				cur[i][l] = c
				tab.Router(i).Update(l, c)
			}
			for i := 0; i < n; i++ {
				costs := cur[i]
				fresh := ComputeInto(ws, g, topology.NodeID(i), func(l topology.LinkID) float64 { return costs[l] })
				tree := tab.Router(i).Tree()
				for d := 0; d < n; d++ {
					dst := topology.NodeID(d)
					if tree.Dist(dst) != fresh.Dist(dst) {
						t.Fatalf("seed %d round %d router %d: dist(%d) = %v, fresh Dijkstra says %v",
							seed, round, i, d, tree.Dist(dst), fresh.Dist(dst))
					}
					if p := tree.Parent(dst); p != topology.NoLink &&
						tree.Dist(g.Link(p).From)+costs[p] != tree.Dist(dst) {
						t.Fatalf("seed %d round %d router %d: parent link %d of node %d is not tight", seed, round, i, p, d)
					}
				}
			}
		}
	}
}
