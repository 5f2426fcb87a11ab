package metric

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/queueing"
	"repro/internal/topology"
)

func TestDSPFBias(t *testing.T) {
	// Figure 4: the delay metric's bias for an idle zero-prop 56 kb/s line
	// is 2 units.
	d := NewDSPF(topology.T56, 0)
	if math.Abs(d.Bias()-2) > 1e-6 {
		t.Errorf("56T bias = %v, want 2", d.Bias())
	}
	if d.Cost() != d.Bias() {
		t.Errorf("fresh link cost = %v, want bias", d.Cost())
	}
}

func TestDSPF20xRange(t *testing.T) {
	// §3.2: "in a network consisting solely of 56 kb/s lines a highly
	// loaded line can appear 20 times less attractive than a lightly
	// loaded one."
	d := NewDSPF(topology.T56, 0)
	if r := d.Ceiling() / d.Bias(); math.Abs(r-20) > 0.01 {
		t.Errorf("ceiling/bias = %v, want 20", r)
	}
}

func TestDSPF127xHeterogeneous(t *testing.T) {
	// §3.2: "a heavily loaded 9.6 kb/s line can appear 127 times less
	// attractive than a lightly loaded 56 kb/s line." With zero
	// propagation our reconstruction gives 20 × (56/9.6) ≈ 117; the paper's
	// 127 includes small tabled terms. Shape: two orders of magnitude.
	d96 := NewDSPF(topology.T9_6, 0)
	d56 := NewDSPF(topology.T56, 0)
	r := d96.Ceiling() / d56.Bias()
	if r < 100 || r > 140 {
		t.Errorf("heavy 9.6 / light 56 = %v, want ~117-127", r)
	}
}

func TestDSPFIdleSatelliteVsIdle96(t *testing.T) {
	// §4.4: with the delay metric an idle 9.6 line appears about *half* the
	// cost of an idle 56 satellite (i.e. the satellite looks ~2× worse) —
	// the situation HN-SPF reverses.
	s56 := NewDSPF(topology.S56, 0.260)
	t96 := NewDSPF(topology.T9_6, 0.010)
	r := s56.Bias() / t96.Bias()
	if r < 1.5 || r > 5 {
		t.Errorf("idle 56S / idle 9.6T = %v, want ~2-4 (satellite penalized)", r)
	}
}

func TestDSPFTracksDelayImmediately(t *testing.T) {
	// The delay metric has no movement limits: a big swing is reported in
	// full in one period — the §3.3 oscillation enabler.
	d := NewDSPF(topology.T56, 0)
	s := queueing.ServiceTime(56000)
	d.Update(s) // idle
	hot, rep := d.Update(queueing.MM1Delay(s, 0.9))
	if !rep {
		t.Fatal("a 10× delay change must be significant")
	}
	if math.Abs(hot-20) > 0.1 { // 10× idle delay = 20 units
		t.Errorf("hot cost = %v, want ~20 (no movement limiting)", hot)
	}
	cold, rep := d.Update(s)
	if !rep || math.Abs(cold-2) > 0.1 {
		t.Errorf("cold cost = %v (report %v), want 2 in one step", cold, rep)
	}
}

func TestDSPFSignificanceDecay(t *testing.T) {
	d := NewDSPF(topology.T56, 0)
	s := queueing.ServiceTime(56000)
	d.Update(s)
	// Identical delay every period: the decaying threshold must force an
	// update within 5 periods (50 s).
	reports := 0
	var forcedAt int
	for i := 1; i <= 5; i++ {
		if _, rep := d.Update(s); rep {
			reports++
			forcedAt = i
		}
	}
	if reports != 1 {
		t.Fatalf("got %d forced updates in 5 quiet periods, want exactly 1", reports)
	}
	if forcedAt != 5 {
		t.Errorf("forced update at period %d, want 5 (50 s)", forcedAt)
	}
}

func TestDSPFSmallChangesSuppressed(t *testing.T) {
	d := NewDSPF(topology.T56, 0)
	s := queueing.ServiceTime(56000)
	d.Update(s)
	// A 5 ms wobble is below the fresh 64 ms threshold.
	if _, rep := d.Update(s + 0.005); rep {
		t.Error("a 5 ms change should not fire a fresh 64 ms threshold")
	}
	// A 100 ms jump is immediately significant.
	if _, rep := d.Update(s + 0.100); !rep {
		t.Error("a 100 ms change must be significant")
	}
}

func TestDSPFClampsToCeiling(t *testing.T) {
	d := NewDSPF(topology.T56, 0)
	c, _ := d.Update(1e6)
	if c != d.Ceiling() {
		t.Errorf("cost for absurd delay = %v, want ceiling %v", c, d.Ceiling())
	}
	c, _ = d.Update(0)
	if c != d.Bias() {
		t.Errorf("cost for zero delay = %v, want bias %v", c, d.Bias())
	}
}

func TestDSPFRawCostMonotone(t *testing.T) {
	d := NewDSPF(topology.T56, 0)
	s := queueing.ServiceTime(56000)
	prev := 0.0
	for u := 0.0; u < 1.0; u += 0.01 {
		c := d.RawCost(s, u)
		if c < prev {
			t.Fatalf("RawCost not monotone at u=%v", u)
		}
		prev = c
	}
	if prev != d.Ceiling() {
		t.Errorf("RawCost near saturation = %v, want ceiling", prev)
	}
}

func TestDSPFSteeperThanHNSPF(t *testing.T) {
	// Figure 4's visual claim: normalized D-SPF is much steeper than
	// normalized HN-SPF at high utilization. At 90% the delay metric is
	// 10× its idle value; HN-SPF is capped at 3×.
	d := NewDSPF(topology.T56, 0)
	s := queueing.ServiceTime(56000)
	norm := d.RawCost(s, 0.90) / d.Bias()
	if norm < 9.9 {
		t.Errorf("normalized D-SPF at 90%% = %v, want ~10", norm)
	}
}

func TestDSPFReset(t *testing.T) {
	d := NewDSPF(topology.T56, 0)
	d.Update(0.5)
	d.Reset()
	if d.Cost() != d.Bias() {
		t.Error("Reset should restore the bias cost")
	}
	if _, rep := d.Update(queueing.ServiceTime(56000)); !rep {
		t.Error("first update after Reset must report")
	}
}

func TestDSPFNegativePropPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative propagation delay should panic")
		}
	}()
	NewDSPF(topology.T56, -1)
}

// Property: D-SPF cost always lies in [bias, ceiling].
func TestDSPFBoundsProperty(t *testing.T) {
	f := func(delaysMs []uint32) bool {
		d := NewDSPF(topology.T9_6, 0.010)
		for _, ms := range delaysMs {
			c, _ := d.Update(float64(ms) / 1000)
			if c < d.Bias()-1e-9 || c > d.Ceiling()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinHop(t *testing.T) {
	m := NewMinHop()
	c, rep := m.Update(123.456)
	if c != 1 || !rep {
		t.Errorf("first update = (%v, %v), want (1, true)", c, rep)
	}
	for i := 0; i < 5; i++ {
		c, rep = m.Update(float64(i))
		if c != 1 || rep {
			t.Errorf("later update = (%v, %v), want (1, false)", c, rep)
		}
	}
	m.Reset()
	if _, rep := m.Update(0); !rep {
		t.Error("first update after Reset must report")
	}
	if m.Cost() != 1 {
		t.Error("Cost must always be 1")
	}
}
