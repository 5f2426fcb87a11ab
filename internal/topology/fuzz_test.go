package topology

import (
	"math"
	"testing"
)

// FuzzGraphBuild drives every topology builder with fuzz-chosen (then
// clamped-to-contract) parameters and asserts the structural invariants the
// rest of the simulator assumes of any built graph: Validate passes (ID
// consistency, trunk pairing, connectivity), link/trunk counts agree, every
// adjacency list entry is consistent and sits at the line number the graph
// records for it, and the builders are deterministic —
// the same parameters build byte-identical graphs.
func FuzzGraphBuild(f *testing.F) {
	f.Add(int64(0), int64(4), int64(3), 2.5, int64(1))
	f.Add(int64(1), int64(3), int64(0), 0.0, int64(0))
	f.Add(int64(2), int64(4), int64(5), 1.0, int64(7))
	f.Add(int64(3), int64(6), int64(2), 3.5, int64(42))
	f.Add(int64(4), int64(2), int64(2), 1.5, int64(-9))
	f.Fuzz(func(t *testing.T, family, a, b int64, deg float64, seed int64) {
		build := func() *Graph {
			switch family % 5 {
			case 0:
				n := 2 + int(abs64(a)%30)
				if !(deg >= 1) || math.IsInf(deg, 0) {
					deg = 1
				}
				if deg > 8 {
					deg = 8
				}
				lts := []LineType{LineType(abs64(b) % int64(NumLineTypes)), T56}
				return Random(n, deg, seed, lts...)
			case 1:
				return Ring(3+int(abs64(a)%30), LineType(abs64(b)%int64(NumLineTypes)))
			case 2:
				return Grid(1+int(abs64(a)%6), 2+int(abs64(b)%6), T56)
			case 3:
				g, _, _ := TwoRegion(2+int(abs64(a)%8), LineType(abs64(b)%int64(NumLineTypes)))
				return g
			default:
				return Line(2+int(abs64(a)%30), LineType(abs64(b)%int64(NumLineTypes)))
			}
		}
		g := build()
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails Validate: %v", err)
		}
		if g.NumLinks() != 2*g.NumTrunks() {
			t.Fatalf("NumLinks %d != 2×NumTrunks %d", g.NumLinks(), g.NumTrunks())
		}
		degSum := 0
		for _, n := range g.Nodes() {
			degSum += g.Degree(n.ID)
			for i, lid := range g.Out(n.ID) {
				if g.Link(lid).From != n.ID {
					t.Fatalf("out-list of %d holds link %d with From %d", n.ID, lid, g.Link(lid).From)
				}
				if g.OutLine(lid) != i {
					t.Fatalf("link %d is line %d out of node %d, OutLine says %d", lid, i, n.ID, g.OutLine(lid))
				}
			}
			for i, lid := range g.In(n.ID) {
				if g.Link(lid).To != n.ID {
					t.Fatalf("in-list of %d holds link %d with To %d", n.ID, lid, g.Link(lid).To)
				}
				if g.InLine(lid) != i || g.Out(n.ID)[i] != g.Link(lid).Reverse() {
					t.Fatalf("link %d is line %d into node %d, InLine says %d and line %d out is link %d",
						lid, i, n.ID, g.InLine(lid), i, g.Out(n.ID)[i])
				}
			}
			if id, ok := g.Lookup(n.Name); !ok || id != n.ID {
				t.Fatalf("Lookup(%q) = %d, %v, want %d", n.Name, id, ok, n.ID)
			}
		}
		if degSum != g.NumLinks() {
			t.Fatalf("degree sum %d != NumLinks %d", degSum, g.NumLinks())
		}
		// Determinism: rebuilding with the same parameters gives the same graph.
		h := build()
		if h.NumNodes() != g.NumNodes() || h.NumLinks() != g.NumLinks() {
			t.Fatalf("rebuild differs: %d/%d nodes, %d/%d links",
				g.NumNodes(), h.NumNodes(), g.NumLinks(), h.NumLinks())
		}
		for i, l := range g.Links() {
			if h.Links()[i] != l {
				t.Fatalf("rebuild differs at link %d: %+v vs %+v", i, l, h.Links()[i])
			}
		}
	})
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == math.MinInt64 {
			return 0
		}
		return -v
	}
	return v
}
