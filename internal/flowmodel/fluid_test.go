package flowmodel

import (
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// diamond builds A-B-D / A-C-D with the link IDs needed by the fluid tests.
func diamond(t *testing.T) (g *topology.Graph, ab, ac, bd, cd topology.LinkID) {
	t.Helper()
	g = topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	c, d := g.AddNode("C"), g.AddNode("D")
	ab, _ = g.AddTrunk(a, b, topology.T56)
	ac, _ = g.AddTrunk(a, c, topology.T56)
	bd, _ = g.AddTrunk(b, d, topology.T56)
	cd, _ = g.AddTrunk(c, d, topology.T56)
	return g, ab, ac, bd, cd
}

func TestFluidReassignFollowsCosts(t *testing.T) {
	g, ab, ac, bd, cd := diamond(t)
	m := traffic.NewMatrix(4)
	m.Set(0, 3, 10000) // A -> D
	f := NewFluid(g, m)
	if f.LinkBPS(ab) != 0 {
		t.Fatal("rates must be zero before the first Reassign")
	}

	// B path cheap: traffic takes A-B-D.
	cost := func(l topology.LinkID) float64 {
		if l == ac || l == g.Link(ac).Reverse() {
			return 10
		}
		return 1
	}
	f.Reassign(cost, nil)
	if f.LinkBPS(ab) != 10000 || f.LinkBPS(bd) != 10000 {
		t.Errorf("want 10000 bps on A-B-D, got ab=%v bd=%v", f.LinkBPS(ab), f.LinkBPS(bd))
	}
	if f.LinkBPS(ac) != 0 || f.LinkBPS(cd) != 0 {
		t.Errorf("C path should be idle, got ac=%v cd=%v", f.LinkBPS(ac), f.LinkBPS(cd))
	}

	// Costs flip: the next epoch moves the whole flow to A-C-D.
	f.Reassign(func(l topology.LinkID) float64 {
		if l == ab || l == g.Link(ab).Reverse() {
			return 10
		}
		return 1
	}, nil)
	if f.LinkBPS(ac) != 10000 || f.LinkBPS(cd) != 10000 {
		t.Errorf("want 10000 bps on A-C-D after the cost flip, got ac=%v cd=%v",
			f.LinkBPS(ac), f.LinkBPS(cd))
	}
	if f.LinkBPS(ab) != 0 {
		t.Errorf("B path should drain after the flip, got %v", f.LinkBPS(ab))
	}
}

func TestFluidReroutesAroundDownLink(t *testing.T) {
	g, ab, ac, bd, cd := diamond(t)
	m := traffic.NewMatrix(4)
	m.Set(0, 3, 10000)
	f := NewFluid(g, m)
	f.Reassign(unit, nil) // ties break somewhere; force the interesting case below

	// A-B down: all demand must route via C.
	isDown := func(l topology.LinkID) bool {
		return l == ab || l == g.Link(ab).Reverse()
	}
	f.Reassign(unit, isDown)
	if f.LinkBPS(ac) != 10000 || f.LinkBPS(cd) != 10000 {
		t.Errorf("want reroute via C, got ac=%v cd=%v", f.LinkBPS(ac), f.LinkBPS(cd))
	}
	if f.LinkBPS(ab) != 0 || f.LinkBPS(bd) != 0 {
		t.Errorf("dead path must carry nothing, got ab=%v bd=%v", f.LinkBPS(ab), f.LinkBPS(bd))
	}

	// Both A exits down: the demand is unroutable, no link carries it.
	f.Reassign(unit, func(l topology.LinkID) bool {
		return l == ab || l == g.Link(ab).Reverse() || l == ac || l == g.Link(ac).Reverse()
	})
	for i := 0; i < g.NumLinks(); i++ {
		if f.LinkBPS(topology.LinkID(i)) != 0 {
			t.Errorf("link %d carries %v bps of unroutable demand", i, f.LinkBPS(topology.LinkID(i)))
		}
	}
}

func TestFluidScaleImmediateRoutesLazy(t *testing.T) {
	g, ab, _, bd, _ := diamond(t)
	m := traffic.NewMatrix(4)
	m.Set(0, 3, 10000)
	f := NewFluid(g, m)
	cheapB := func(l topology.LinkID) float64 {
		if l == ab || l == g.Link(ab).Reverse() || l == bd || l == g.Link(bd).Reverse() {
			return 1
		}
		return 10
	}
	f.Reassign(cheapB, nil)

	// The surge doubles the load on the *current* routes immediately.
	f.Scale(2)
	if f.LinkBPS(ab) != 20000 || f.LinkBPS(bd) != 20000 {
		t.Errorf("Scale must be immediate: ab=%v bd=%v, want 20000", f.LinkBPS(ab), f.LinkBPS(bd))
	}
	// And it persists across the next epoch's rerouting.
	f.Reassign(cheapB, nil)
	if f.LinkBPS(ab) != 20000 || f.scale != 2 {
		t.Errorf("scale must persist across Reassign, got %v (scale %v)", f.LinkBPS(ab), f.scale)
	}
}

func TestFluidDeterministic(t *testing.T) {
	g := topology.Arpanet()
	m := traffic.Gravity(g, topology.ArpanetWeights(), 500000)
	run := func() []float64 {
		f := NewFluid(g, m)
		f.Reassign(unit, nil)
		f.Scale(1.5)
		f.Reassign(unit, func(l topology.LinkID) bool { return l == 3 || l == g.Link(3).Reverse() })
		out := make([]float64, g.NumLinks())
		for i := range out {
			out[i] = f.LinkBPS(topology.LinkID(i))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		// Determinism check: identical runs must agree bit-for-bit
		if a[i] != b[i] {
			t.Fatalf("link %d: %v vs %v — fluid reassignment is not deterministic", i, a[i], b[i])
		}
	}
}

func TestFluidPanics(t *testing.T) {
	g := topology.Ring(3, topology.T56)
	if !panics(func() { NewFluid(g, traffic.NewMatrix(5)) }) {
		t.Error("matrix mismatch should panic")
	}
	f := NewFluid(g, traffic.NewMatrix(3))
	if !panics(func() { f.Scale(0) }) {
		t.Error("Scale(0) should panic")
	}
	if !panics(func() { f.Scale(math.Inf(1)) }) {
		t.Error("Scale(+Inf) should panic")
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return
}
