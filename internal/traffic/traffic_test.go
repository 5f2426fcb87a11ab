package traffic

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.NumNodes() != 3 {
		t.Errorf("NumNodes = %d", m.NumNodes())
	}
	m.Set(0, 1, 100)
	m.Set(1, 2, 200)
	if m.Rate(0, 1) != 100 || m.Rate(1, 0) != 0 {
		t.Error("Set/Rate wrong")
	}
	if m.Total() != 300 {
		t.Errorf("Total = %v, want 300", m.Total())
	}
	var seen int
	m.Pairs(func(s, d topology.NodeID, bps float64) { seen++ })
	if seen != 2 {
		t.Errorf("Pairs visited %d, want 2", seen)
	}
	m.Scale(2)
	if m.Total() != 600 {
		t.Errorf("after Scale(2) Total = %v, want 600", m.Total())
	}
	c := m.Clone()
	c.Set(0, 2, 5)
	if m.Rate(0, 2) != 0 {
		t.Error("Clone should be independent")
	}
}

// numFlows counts the pairs with positive rate.
func numFlows(m *Matrix) int {
	n := 0
	m.Pairs(func(topology.NodeID, topology.NodeID, float64) { n++ })
	return n
}

func TestMatrixPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero size":     func() { NewMatrix(0) },
		"self traffic":  func() { NewMatrix(2).Set(1, 1, 5) },
		"negative rate": func() { NewMatrix(2).Set(0, 1, -5) },
		"neg scale":     func() { NewMatrix(2).Scale(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		})
	}
}

func TestUniform(t *testing.T) {
	g := topology.Ring(5, topology.T56)
	m := Uniform(g, 1000)
	if math.Abs(m.Total()-1000) > 1e-9 {
		t.Errorf("Total = %v, want 1000", m.Total())
	}
	want := 1000.0 / 20
	m.Pairs(func(s, d topology.NodeID, bps float64) {
		if math.Abs(bps-want) > 1e-9 {
			t.Errorf("rate(%d,%d) = %v, want %v", s, d, bps, want)
		}
	})
	if numFlows(m) != 20 {
		t.Errorf("flows = %d, want 20", numFlows(m))
	}
}

func TestGravity(t *testing.T) {
	g := topology.Arpanet()
	m := Gravity(g, topology.ArpanetWeights(), 400000)
	if math.Abs(m.Total()-400000) > 1e-6 {
		t.Errorf("Total = %v, want 400000", m.Total())
	}
	// Heavy pairs (MIT↔BBN, both weight 3) should exceed light pairs
	// (UCSB↔RUTGERS, weights 1).
	mit, bbn := g.MustLookup("MIT"), g.MustLookup("BBN")
	ucsb, rut := g.MustLookup("UCSB"), g.MustLookup("RUTGERS")
	if m.Rate(mit, bbn) <= m.Rate(ucsb, rut) {
		t.Error("gravity model should weight big hosts more")
	}
	if r := m.Rate(mit, bbn) / m.Rate(ucsb, rut); math.Abs(r-9) > 1e-9 {
		t.Errorf("weight-3 pair / weight-1 pair = %v, want 9", r)
	}
	// Symmetric weights imply a symmetric matrix.
	if m.Rate(mit, bbn) != m.Rate(bbn, mit) {
		t.Error("gravity matrix should be symmetric for symmetric weights")
	}
	// Every ordered pair gets some traffic (many small flows).
	if numFlows(m) != g.NumNodes()*(g.NumNodes()-1) {
		t.Errorf("flows = %d, want all pairs", numFlows(m))
	}
}

func TestGravityDefaultsAndPanics(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	m := Gravity(g, nil, 120)
	// All weights default to 1 → uniform.
	m.Pairs(func(s, d topology.NodeID, bps float64) {
		if math.Abs(bps-10) > 1e-9 {
			t.Errorf("rate = %v, want 10", bps)
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("non-positive weight should panic")
		}
	}()
	Gravity(g, map[string]float64{"N0": -1}, 100)
}

func TestHotspot(t *testing.T) {
	g, _, _ := topology.TwoRegion(3, topology.T56)
	west := func(n topology.NodeID) bool { return strings.HasPrefix(g.Node(n).Name, "W") }
	m := Hotspot(g, west, 1000, 0.8)
	if math.Abs(m.Total()-1000) > 1e-9 {
		t.Errorf("Total = %v, want 1000", m.Total())
	}
	var cross, local float64
	m.Pairs(func(s, d topology.NodeID, bps float64) {
		if west(s) != west(d) {
			cross += bps
		} else {
			local += bps
		}
	})
	if math.Abs(cross-800) > 1e-9 || math.Abs(local-200) > 1e-9 {
		t.Errorf("cross/local = %v/%v, want 800/200", cross, local)
	}
}

func TestHotspotPanics(t *testing.T) {
	g, _, _ := topology.TwoRegion(2, topology.T56)
	defer func() {
		if recover() == nil {
			t.Error("frac out of range should panic")
		}
	}()
	Hotspot(g, func(topology.NodeID) bool { return true }, 100, 2)
}

// Property: Scale by f multiplies the total by f, and Gravity always hits
// its requested total.
func TestScaleGravityProperty(t *testing.T) {
	g := topology.Ring(5, topology.T56)
	f := func(totRaw, fRaw uint16) bool {
		total := float64(totRaw)
		factor := float64(fRaw) / 1000
		m := Gravity(g, nil, total)
		if math.Abs(m.Total()-total) > 1e-6*(1+total) {
			return false
		}
		before := m.Total()
		m.Scale(factor)
		return math.Abs(m.Total()-before*factor) < 1e-6*(1+before*factor)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
