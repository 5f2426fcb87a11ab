package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestServiceTime(t *testing.T) {
	// 600 bits over 56 kb/s = 10.714... ms (the paper's canonical trunk).
	got := ServiceTime(56000)
	if math.Abs(got-0.0107142857) > 1e-9 {
		t.Errorf("ServiceTime(56k) = %v, want ~10.714ms", got)
	}
	if ServiceTime(0) != 0 || ServiceTime(-1) != 0 {
		t.Error("non-positive bandwidth should give 0")
	}
}

func TestMM1Delay(t *testing.T) {
	s := ServiceTime(56000)
	if got := MM1Delay(s, 0); got != s {
		t.Errorf("delay at rho=0 should equal service time, got %v", got)
	}
	if got := MM1Delay(s, 0.5); math.Abs(got-2*s) > 1e-12 {
		t.Errorf("delay at rho=0.5 = %v, want 2S", got)
	}
	if !math.IsInf(MM1Delay(s, 1), 1) {
		t.Error("delay at rho=1 should be +Inf")
	}
	if got := MM1Delay(s, -0.5); got != s {
		t.Error("negative rho should clamp to 0")
	}
}

// Property: UtilizationFromDelay inverts MM1Delay on (0, 0.999].
func TestDelayUtilizationRoundTrip(t *testing.T) {
	s := ServiceTime(56000)
	f := func(r float64) bool {
		rho := math.Mod(math.Abs(r), 0.999)
		d := MM1Delay(s, rho)
		back := UtilizationFromDelay(s, d)
		return math.Abs(back-rho) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationFromDelayEdges(t *testing.T) {
	s := ServiceTime(56000)
	if UtilizationFromDelay(s, s) != 0 {
		t.Error("delay == service time should map to rho 0")
	}
	if UtilizationFromDelay(s, s/2) != 0 {
		t.Error("delay below service time should map to rho 0")
	}
	if got := UtilizationFromDelay(s, 1e9); got != 0.999 {
		t.Errorf("huge delay should clamp to 0.999, got %v", got)
	}
	if UtilizationFromDelay(0, 1) != 0 {
		t.Error("zero service time should map to rho 0")
	}
}

func TestPaperUtilizationAnchors(t *testing.T) {
	// §5.2: a link over 75% utilized reports an average D-SPF cost of 4 hops
	// assuming M/M/1. At rho=0.75, delay = 4×service time — i.e. 4× the idle
	// cost, which is exactly how Figure 7's "4 hops" arises.
	s := ServiceTime(56000)
	d := MM1Delay(s, 0.75)
	if ratio := d / s; math.Abs(ratio-4) > 1e-12 {
		t.Errorf("delay ratio at 75%% = %v, want 4", ratio)
	}
	// §3.2: a highly loaded 56k line can appear 20× less attractive: that is
	// rho = 0.95.
	d95 := MM1Delay(s, 0.95)
	if ratio := d95 / s; math.Abs(ratio-20) > 1e-9 {
		t.Errorf("delay ratio at 95%% = %v, want 20", ratio)
	}
}

func TestTable(t *testing.T) {
	s := ServiceTime(56000)
	tab := NewTable(s, 0.0001, 1.0, UtilizationFromDelay)
	if tab.ServiceTime() != s {
		t.Error("ServiceTime mismatch")
	}
	// Table lookup should approximate the analytic inverse.
	for _, rho := range []float64{0.1, 0.5, 0.75, 0.9} {
		d := MM1Delay(s, rho)
		got := tab.Lookup(d)
		if math.Abs(got-rho) > 0.02 {
			t.Errorf("table lookup at rho=%v gave %v", rho, got)
		}
	}
	if tab.Lookup(0) != 0 || tab.Lookup(-1) != 0 {
		t.Error("non-positive delay should map to 0")
	}
	// Saturation beyond the table.
	if got := tab.Lookup(100); got != tab.Lookup(1.0) {
		t.Errorf("lookup beyond table should saturate, got %v", got)
	}
}

// TestTableMatchesMaterialized holds Lookup to the array the PSN stored:
// entry i = invert(S, i·step) for i = 0…int(maxDelay/step), indexed by the
// delay rounded to the nearest step and saturating at the last entry. At the
// HNM's parameters (core.NewModuleParams: 1% of S out to 200 S) on the three
// terrestrial line types, under both inversions, every entry must come back
// bit for bit — at its own delay, on both sides of each half-step rounding
// boundary, at and below zero, and past maxDelay.
func TestTableMatchesMaterialized(t *testing.T) {
	for _, inv := range []struct {
		name   string
		invert func(serviceTime, delay float64) float64
	}{
		{"M/M/1", UtilizationFromDelay},
		{"M/D/1", UtilizationFromDelayMD1},
	} {
		for _, lt := range []topology.LineType{topology.T50, topology.T56, topology.T112} {
			s := ServiceTime(lt.Bandwidth())
			step, maxDelay := s/100, s*200
			tab := NewTable(s, step, maxDelay, inv.invert)
			rho := make([]float64, int(maxDelay/step)+1)
			for i := range rho {
				rho[i] = inv.invert(s, float64(i)*step)
			}
			if len(rho) != 20_001 {
				t.Fatalf("%s %v: %d entries, want 20,001", inv.name, lt, len(rho))
			}
			stored := func(delay float64) float64 {
				if delay <= 0 {
					return 0
				}
				if x := delay/step + 0.5; x < float64(len(rho)) {
					return rho[int(x)]
				}
				return rho[len(rho)-1]
			}
			check := func(delay float64) {
				if got, want := tab.Lookup(delay), stored(delay); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v: Lookup(%v) = %v, the stored table holds %v", inv.name, lt, delay, got, want)
				}
			}
			for i := range rho {
				check(float64(i) * step)
				half := (float64(i) + 0.5) * step
				check(math.Nextafter(half, 0))
				check(half)
				check(math.Nextafter(half, math.Inf(1)))
			}
			for _, d := range []float64{0, math.Copysign(0, -1), -step, -1, math.Inf(-1),
				math.SmallestNonzeroFloat64, maxDelay, maxDelay + step, 2 * maxDelay, 1e300, math.Inf(1)} {
				check(d)
			}
			if got := tab.Lookup(math.Inf(1)); got != rho[len(rho)-1] || got == 0 {
				t.Errorf("%s %v: Lookup(+Inf) = %v, want the last entry %v", inv.name, lt, got, rho[len(rho)-1])
			}
		}
	}
}

func TestTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid table parameters should panic")
		}
	}()
	NewTable(0, 0.001, 1, UtilizationFromDelay)
}

func TestSuperposeDelay(t *testing.T) {
	s := ServiceTime(56000)

	// Zero or negative background returns the measurement bit-for-bit —
	// the hybrid engine's zero-background path must degenerate exactly.
	for _, bg := range []float64{0, -0.1} {
		for _, d := range []float64{0, s, 3 * s, 0.25} {
			if got := SuperposeDelay(s, d, bg); got != d {
				t.Errorf("SuperposeDelay(s, %v, %v) = %v, want the measurement unchanged", d, bg, got)
			}
		}
	}

	// An idle trunk (measured delay ≈ service time, fgRho = 0) plus
	// background rho reads exactly like an M/M/1 at rho: D' = D + S/(1-rho) - S.
	for _, bg := range []float64{0.1, 0.5, 0.9} {
		got := SuperposeDelay(s, s, bg)
		want := s + MM1Delay(s, bg) - s
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("idle+bg %v: got %v, want %v", bg, got, want)
		}
	}

	// Superposition is consistent with measuring the combined load: a trunk
	// measured at fg=0.3 plus fluid 0.4 must report the M/M/1 delay of 0.7.
	meas := MM1Delay(s, 0.3)
	got := SuperposeDelay(s, meas, 0.4)
	if want := MM1Delay(s, 0.7); math.Abs(got-want) > 1e-9 {
		t.Errorf("fg 0.3 + bg 0.4: got %v, want MM1Delay at 0.7 = %v", got, want)
	}

	// Monotone in the background load.
	if SuperposeDelay(s, meas, 0.5) <= SuperposeDelay(s, meas, 0.2) {
		t.Error("more background must mean more delay")
	}

	// Saturated trunk: fg+bg past 1 clamps at MaxRho — a large *finite*
	// delay, never an infinity that would poison the averaging filter.
	for _, bg := range []float64{0.7, 1.0, 5.0} {
		got := SuperposeDelay(s, MM1Delay(s, 0.8), bg)
		want := MM1Delay(s, 0.8) + MM1Delay(s, MaxRho) - MM1Delay(s, 0.8)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("saturated superposition must stay finite, got %v", got)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("bg %v: got %v, want clamped %v", bg, got, want)
		}
	}

	// A measurement already at the clamp gains nothing more.
	atClamp := MM1Delay(s, MaxRho)
	if got := SuperposeDelay(s, atClamp, 0.5); math.Abs(got-atClamp) > 1e-9 {
		t.Errorf("already-saturated measurement: got %v, want %v", got, atClamp)
	}

	// Degenerate service time passes through.
	if got := SuperposeDelay(0, 0.5, 0.5); got != 0.5 {
		t.Errorf("zero service time: got %v, want 0.5", got)
	}
}
