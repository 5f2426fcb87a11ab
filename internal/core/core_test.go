package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/queueing"
	"repro/internal/topology"
)

// delayAt returns the measured delay an M/M/1 56 kb/s link would report at
// utilization rho.
func delayAt(lt topology.LineType, rho float64) float64 {
	return queueing.MM1Delay(queueing.ServiceTime(lt.Bandwidth()), rho)
}

// settle feeds the module the same delay until the reported cost has been
// stable for several periods (single repeats can be transient suppression
// by the minimum-change threshold), returning the final cost.
func settle(m *Module, delay float64) float64 {
	last := math.NaN()
	stable := 0
	for i := 0; i < 200; i++ {
		c, _ := m.Update(delay)
		if c == last {
			stable++
			if stable >= 10 {
				return c
			}
		} else {
			stable = 0
		}
		last = c
	}
	return last
}

func TestIdleLineReportsFloor(t *testing.T) {
	m := NewModule(topology.T56, 0)
	c := settle(m, delayAt(topology.T56, 0))
	if c != 30 {
		t.Errorf("idle zero-prop 56T settles at %v, want 30 (one hop)", c)
	}
}

func TestNewLinkStartsAtMaxAndEasesIn(t *testing.T) {
	// §5.4: "when a link comes up it starts with its highest cost" and
	// descends by at most MaxDecrease per period.
	m := NewModule(topology.T56, 0)
	if m.Cost() != 90 {
		t.Fatalf("new link cost = %v, want 90", m.Cost())
	}
	idle := delayAt(topology.T56, 0)
	prev := m.Cost()
	steps := 0
	for {
		c, _ := m.Update(idle)
		if prev-c > m.params.MaxDecrease()+1e-9 {
			t.Fatalf("cost fell by %v in one period, limit %v", prev-c, m.params.MaxDecrease())
		}
		if c == prev {
			break
		}
		prev = c
		steps++
		if steps > 20 {
			t.Fatal("ease-in did not converge")
		}
	}
	if prev != 30 {
		t.Errorf("eased-in cost = %v, want 30", prev)
	}
	if steps < 3 {
		t.Errorf("ease-in took %d steps; should be gradual (>= 3)", steps)
	}
}

func TestFlatBelowRampThreshold(t *testing.T) {
	// §4.2: "The HN-SPF metric is constant until the utilization gets above
	// a threshold... 50% for a 56 kb/s terrestrial link."
	m := NewModule(topology.T56, 0)
	c40 := settle(m, delayAt(topology.T56, 0.40))
	m.Reset()
	c10 := settle(m, delayAt(topology.T56, 0.10))
	if c40 != c10 || c40 != 30 {
		t.Errorf("costs below 50%% utilization differ: %v vs %v (want both 30)", c40, c10)
	}
	m.Reset()
	c75 := settle(m, delayAt(topology.T56, 0.75))
	if c75 <= 30 {
		t.Errorf("cost at 75%% = %v, should exceed the floor", c75)
	}
}

func TestCostCapped(t *testing.T) {
	m := NewModule(topology.T56, 0)
	c := settle(m, delayAt(topology.T56, 0.999))
	if c != 90 {
		t.Errorf("saturated cost = %v, want 90 (the cap)", c)
	}
}

func TestPaperExample75Percent(t *testing.T) {
	// §5.2: "if the base traffic is 75% of the link's capacity, then D-SPF
	// would report a cost of 4 [hops], whereas HN-SPF would report a value
	// of 2."
	m := NewModule(topology.T56, 0)
	c := settle(m, delayAt(topology.T56, 0.75))
	hops := c / HopCost
	if math.Abs(hops-2) > 0.25 {
		t.Errorf("HN-SPF at 75%% utilization = %v hops, want ~2", hops)
	}
}

func TestMovementLimitedPerUpdate(t *testing.T) {
	m := NewModule(topology.T56, 0)
	idle := delayAt(topology.T56, 0)
	settle(m, idle)
	// Jump to saturation: each update may raise the cost by at most
	// MaxIncrease (16 units for 56 kb/s).
	hot := delayAt(topology.T56, 0.99)
	prev := m.Cost()
	for i := 0; i < 10; i++ {
		c, _ := m.Update(hot)
		if c-prev > m.params.MaxIncrease()+1e-9 {
			t.Fatalf("cost rose by %v in one period, limit %v", c-prev, m.params.MaxIncrease())
		}
		prev = c
	}
	if prev != 90 {
		t.Errorf("cost should reach the 90 cap, got %v", prev)
	}
}

func TestMinimumChangeSuppressesUpdates(t *testing.T) {
	m := NewModule(topology.T56, 0)
	idle := delayAt(topology.T56, 0)
	settle(m, idle)
	// A tiny utilization wiggle below the ramp must not generate updates.
	reports := 0
	for i := 0; i < 20; i++ {
		d := delayAt(topology.T56, 0.30+0.02*float64(i%2))
		if _, rep := m.Update(d); rep {
			reports++
		}
	}
	if reports != 0 {
		t.Errorf("%d frivolous updates generated for sub-threshold wiggle", reports)
	}
	// A real load change must be reported.
	var reported bool
	for i := 0; i < 5; i++ {
		if _, rep := m.Update(delayAt(topology.T56, 0.95)); rep {
			reported = true
		}
	}
	if !reported {
		t.Error("a saturation-level change was never reported")
	}
}

func TestAveragingFilter(t *testing.T) {
	// The filter averages over roughly the last two periods: one hot sample
	// after a long idle history moves the estimate half way.
	m := NewModule(topology.T56, 0)
	settle(m, delayAt(topology.T56, 0))
	m.Update(delayAt(topology.T56, 0.8))
	got := m.lastAverage
	if math.Abs(got-0.4) > 0.02 {
		t.Errorf("utilization estimate after one 80%% sample = %v, want ~0.4", got)
	}
}

func TestUpwardMarch(t *testing.T) {
	// §5.4: because MaxDecrease = MaxIncrease − 1, a full up-down
	// oscillation cycle leaves the reported cost one unit higher.
	m := NewModule(topology.T56, 0)
	settle(m, delayAt(topology.T56, 0))
	hot, cold := delayAt(topology.T56, 0.999), delayAt(topology.T56, 0.0)

	// Force alternating saturated/idle periods (several each so the
	// averaging filter swings fully) and check the cycle minimum marches up.
	cycleMin := func() float64 {
		for i := 0; i < 6; i++ {
			m.Update(hot)
		}
		min := math.Inf(1)
		for i := 0; i < 6; i++ {
			c, _ := m.Update(cold)
			if c < min {
				min = c
			}
		}
		return min
	}
	m1 := cycleMin()
	m2 := cycleMin()
	if m2 < m1 {
		t.Errorf("cycle minimum fell from %v to %v; should march up or hold", m1, m2)
	}
}

func TestResetRestoresLinkUpState(t *testing.T) {
	m := NewModule(topology.T56, 0)
	settle(m, delayAt(topology.T56, 0.75))
	m.Reset()
	if m.Cost() != 90 {
		t.Errorf("cost after Reset = %v, want 90", m.Cost())
	}
	if m.lastAverage != 0 {
		t.Error("utilization filter should clear on Reset")
	}
}

func TestRawCostMonotone(t *testing.T) {
	for lt := topology.LineType(0); int(lt) < topology.NumLineTypes; lt++ {
		m := NewModule(lt, lt.DefaultPropDelay())
		prev := -1.0
		for u := 0.0; u <= 1.0; u += 0.01 {
			c := m.RawCost(u)
			if c < prev {
				t.Errorf("%v RawCost not monotone at u=%v", lt, u)
			}
			if c < m.Floor()-1e-9 || c > m.Ceiling()+1e-9 {
				t.Errorf("%v RawCost(%v) = %v outside [%v, %v]", lt, u, c, m.Floor(), m.Ceiling())
			}
			prev = c
		}
	}
}

// Property: whatever delays are fed in, the reported cost stays within
// [floor, ceiling] and never moves more than the movement limits per update.
func TestCostInvariantsProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		m := NewModule(topology.T56, 0.010)
		prev := m.Cost()
		for _, d := range delaysMs {
			c, _ := m.Update(float64(d) / 1000)
			if c < m.Floor()-1e-9 || c > m.Ceiling()+1e-9 {
				return false
			}
			if c-prev > m.params.MaxIncrease()+1e-9 || prev-c > m.params.MaxDecrease()+1e-9 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the module is deterministic — the same delay sequence yields
// the same cost sequence.
func TestDeterminismProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		a := NewModule(topology.S56, 0.260)
		b := NewModule(topology.S56, 0.260)
		for _, d := range delaysMs {
			ca, ra := a.Update(float64(d) / 1000)
			cb, rb := b.Update(float64(d) / 1000)
			if ca != cb || ra != rb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad params":    func() { NewModuleParams(LineParams{}, 56000, 0) },
		"bad bandwidth": func() { NewModuleParams(DefaultParams(topology.T56), 0, 0) },
		"negative prop": func() { NewModuleParams(DefaultParams(topology.T56), 56000, -1) },
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

var moduleSink *Module

// A module carries its delay→utilization table by value: building one is
// the Module itself and nothing else — no table, no entry array — for every
// line of every network.
func TestNewModuleOneAllocation(t *testing.T) {
	p := DefaultParams(topology.T56)
	if allocs := testing.AllocsPerRun(100, func() {
		moduleSink = NewModuleParams(p, topology.T56.Bandwidth(), 0.010)
	}); allocs != 1 {
		t.Errorf("NewModuleParams made %.0f allocations, want 1 (the Module)", allocs)
	}
}

func TestExtremePropagationClampedToCeiling(t *testing.T) {
	// A pathological 2-second line: floor must not exceed the ceiling.
	m := NewModule(topology.T56, 2.0)
	if m.Floor() > m.Ceiling() {
		t.Errorf("floor %v exceeds ceiling %v", m.Floor(), m.Ceiling())
	}
}
