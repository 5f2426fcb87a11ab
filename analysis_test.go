package arpanet

import (
	"runtime"
	"testing"
)

// TestAnalysisWorkerKnob: the one worker knob left is GOMAXPROCS, and it
// must not change any analysis output — sequential and wide builds agree
// exactly.
func TestAnalysisWorkerKnob(t *testing.T) {
	topo := Arpanet1987()
	tr := topo.GravityTraffic(ArpanetWeights(), 400_000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq := NewAnalysis(topo, tr)
	runtime.GOMAXPROCS(8)
	par := NewAnalysis(topo, tr)

	if s, p := seq.MeanShedCost(), par.MeanShedCost(); s != p {
		t.Errorf("MeanShedCost: %v vs %v", s, p)
	}
	if s, p := seq.MaxShedCost(), par.MaxShedCost(); s != p {
		t.Errorf("MaxShedCost: %v vs %v", s, p)
	}
	for w := 1.0; w <= 9; w += 0.25 {
		if s, p := seq.Response(w), par.Response(w); s != p {
			t.Errorf("Response(%v): %v vs %v", w, s, p)
		}
	}
	for _, f := range []float64{0.5, 1.0, 2.0} {
		cs, us := seq.Equilibrium(HNSPF, T56, f)
		cp, up := par.Equilibrium(HNSPF, T56, f)
		if cs != cp || us != up {
			t.Errorf("Equilibrium(%v): (%v,%v) vs (%v,%v)", f, cs, us, cp, up)
		}
	}
}
