package core

import (
	"testing"

	"repro/internal/queueing"
	"repro/internal/topology"
)

func ablated(opts ...Option) *Module {
	return NewModuleOptions(DefaultParams(topology.T56), 56000, 0, opts...)
}

func hot() float64  { return queueing.MM1Delay(queueing.ServiceTime(56000), 0.99) }
func cold() float64 { return queueing.ServiceTime(56000) }

func TestWithoutMovementLimitsJumps(t *testing.T) {
	m := ablated(WithoutMovementLimits(), WithoutAveraging())
	// Settle at the floor first.
	for i := 0; i < 10; i++ {
		m.Update(cold())
	}
	if m.Cost() != 30 {
		t.Fatalf("setup: cost = %v", m.Cost())
	}
	// One hot period: without limits the cost leaps to the ceiling.
	c, _ := m.Update(hot())
	if c != 90 {
		t.Errorf("unlimited module moved to %v in one period, want 90", c)
	}
	// And straight back down — the delay-metric-like swing the limits
	// exist to prevent.
	c, _ = m.Update(cold())
	if c != 30 {
		t.Errorf("unlimited module fell to %v in one period, want 30", c)
	}
}

func TestWithLimitsCannotJump(t *testing.T) {
	m := ablated(WithoutAveraging())
	for i := 0; i < 10; i++ {
		m.Update(cold())
	}
	c, _ := m.Update(hot())
	if c != 30+m.params.MaxIncrease() {
		t.Errorf("limited module moved to %v, want %v", c, 30+m.params.MaxIncrease())
	}
}

func TestWithoutAveraging(t *testing.T) {
	m := ablated(WithoutAveraging())
	m.Update(hot())
	if got := m.lastAverage; got < 0.95 {
		t.Errorf("estimate after one hot sample = %v, want the raw sample (~0.99)", got)
	}
	withAvg := ablated()
	withAvg.Update(hot())
	if got := withAvg.lastAverage; got > 0.55 {
		t.Errorf("averaged estimate after one hot sample = %v, want ~0.5", got)
	}
}

func TestWithSymmetricLimitsNoMarch(t *testing.T) {
	// With symmetric limits, a full up-down cycle returns exactly to the
	// starting cost: no upward march.
	m := ablated(WithSymmetricLimits(), WithoutAveraging(), WithoutMinChange())
	for i := 0; i < 10; i++ {
		m.Update(cold())
	}
	start := m.Cost()
	m.Update(hot())
	c, _ := m.Update(cold())
	if c != start {
		t.Errorf("symmetric cycle ended at %v, want %v (no march)", c, start)
	}

	// The real HNM: the same cycle ends one unit higher... except at the
	// floor clip; run the cycle from a point above the floor.
	real := ablated(WithoutAveraging(), WithoutMinChange())
	for i := 0; i < 10; i++ {
		real.Update(cold())
	}
	real.Update(hot()) // 30 → 46
	real.Update(hot()) // 46 → 62
	mid := real.Cost()
	real.Update(hot())         // up by 16
	c, _ = real.Update(cold()) // down by 15
	if c != mid+1 {
		t.Errorf("asymmetric cycle from %v ended at %v, want %v (one-unit march)", mid, c, mid+1)
	}
}

func TestWithoutMinChangeReportsEverything(t *testing.T) {
	// A sub-threshold wobble generates updates only without the threshold.
	drive := func(m *Module) int {
		for i := 0; i < 10; i++ {
			m.Update(cold())
		}
		reports := 0
		s := queueing.ServiceTime(56000)
		for i := 0; i < 20; i++ {
			// Alternate between ~52% and ~58% utilization: cost moves a few
			// units per period, below the 13-unit threshold.
			rho := 0.52 + 0.06*float64(i%2)
			if _, rep := m.Update(queueing.MM1Delay(s, rho)); rep {
				reports++
			}
		}
		return reports
	}
	with := drive(ablated())
	without := drive(ablated(WithoutMinChange()))
	if without <= with {
		t.Errorf("threshold ablation should increase updates: with=%d without=%d", with, without)
	}
	if without < 10 {
		t.Errorf("unthresholded module reported only %d/20 wobbles", without)
	}
}

func TestAblationDefaultsIdentical(t *testing.T) {
	// NewModuleOptions with no options must behave exactly like the real
	// module.
	a := NewModule(topology.T56, 0.01)
	b := NewModuleOptions(DefaultParams(topology.T56), 56000, 0.01)
	s := queueing.ServiceTime(56000)
	for i := 0; i < 50; i++ {
		rho := float64(i%10) / 10
		ca, ra := a.Update(queueing.MM1Delay(s, rho))
		cb, rb := b.Update(queueing.MM1Delay(s, rho))
		if ca != cb || ra != rb {
			t.Fatalf("optionless module diverged at step %d: (%v,%v) vs (%v,%v)", i, ca, ra, cb, rb)
		}
	}
}

func TestWithMD1Table(t *testing.T) {
	// §5's sensitivity: under the M/D/1 inversion the same measured delay
	// implies *higher* utilization, so the metric reports a cost at least
	// as high — the ramp shifts earlier, the bounds stay identical.
	mm1 := ablated(WithoutAveraging(), WithoutMinChange(), WithoutMovementLimits())
	md1 := NewModuleOptions(DefaultParams(topology.T56), 56000, 0,
		WithoutAveraging(), WithoutMinChange(), WithoutMovementLimits(), WithMD1Table())
	s := queueing.ServiceTime(56000)
	higherSomewhere := false
	for _, rho := range []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9} {
		d := queueing.MM1Delay(s, rho)
		ca, _ := mm1.Update(d)
		cb, _ := md1.Update(d)
		if cb < ca {
			t.Errorf("at rho=%v M/D/1 cost %v below M/M/1 cost %v", rho, cb, ca)
		}
		if cb > ca {
			higherSomewhere = true
		}
	}
	if !higherSomewhere {
		t.Error("the M/D/1 table should shift the ramp somewhere in (0,1)")
	}
	if mm1.Floor() != md1.Floor() || mm1.Ceiling() != md1.Ceiling() {
		t.Error("the table swap must not move the bounds")
	}
}
