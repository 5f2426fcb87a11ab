package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

// MD1Delay returns the expected time in system for an M/D/1 queue with the
// given deterministic service time at utilization rho in [0, 1):
//
//	D = S + S·rho / (2(1−rho))
//
// (Pollaczek–Khinchine with zero service variance). +Inf at rho >= 1.
func MD1Delay(serviceTime, rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return serviceTime * (1 + rho/(2*(1-rho)))
}

func TestMD1Delay(t *testing.T) {
	s := ServiceTime(56000)
	if got := MD1Delay(s, 0); got != s {
		t.Errorf("idle delay = %v, want service time", got)
	}
	// At rho=0.5: D = S(1 + 0.5/1) = 1.5S.
	if got := MD1Delay(s, 0.5); math.Abs(got-1.5*s) > 1e-12 {
		t.Errorf("D(0.5) = %v, want 1.5S", got)
	}
	if !math.IsInf(MD1Delay(s, 1), 1) {
		t.Error("D(1) should be +Inf")
	}
	if MD1Delay(s, -1) != s {
		t.Error("negative rho should clamp to 0")
	}
}

func TestMD1LessQueueingThanMM1(t *testing.T) {
	// Deterministic service halves the queueing term: M/D/1 delay is
	// strictly below M/M/1 at every positive utilization.
	s := ServiceTime(56000)
	for rho := 0.05; rho < 1; rho += 0.05 {
		md, mm := MD1Delay(s, rho), MM1Delay(s, rho)
		if md >= mm {
			t.Errorf("at rho=%.2f M/D/1 delay %v >= M/M/1 %v", rho, md, mm)
		}
	}
}

// Property: UtilizationFromDelayMD1 inverts MD1Delay on (0, 0.999].
func TestMD1RoundTripProperty(t *testing.T) {
	s := ServiceTime(9600)
	f := func(r float64) bool {
		rho := math.Mod(math.Abs(r), 0.999)
		d := MD1Delay(s, rho)
		back := UtilizationFromDelayMD1(s, d)
		return math.Abs(back-rho) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMD1InversionEdges(t *testing.T) {
	s := ServiceTime(56000)
	if UtilizationFromDelayMD1(s, s) != 0 || UtilizationFromDelayMD1(s, s/2) != 0 {
		t.Error("delays <= service time should map to 0")
	}
	if got := UtilizationFromDelayMD1(s, 1e9); got != 0.999 {
		t.Errorf("huge delay should clamp to 0.999, got %v", got)
	}
	if UtilizationFromDelayMD1(0, 1) != 0 {
		t.Error("zero service time should map to 0")
	}
}

// The sensitivity the file exists for: if the PSN's traffic were M/D/1
// rather than M/M/1, the delay→utilization table would *under*-estimate
// utilization (an M/D/1 system produces the same delay at higher rho).
// The metric stays monotone either way, so only the ramp position shifts.
func TestMD1SensitivityDirection(t *testing.T) {
	s := ServiceTime(56000)
	for _, rho := range []float64{0.3, 0.5, 0.75, 0.9} {
		d := MD1Delay(s, rho) // the "true" M/D/1 world
		est := UtilizationFromDelay(s, d)
		if est >= rho {
			t.Errorf("M/M/1 table should under-estimate an M/D/1 world: rho=%v est=%v", rho, est)
		}
		// The exact inverter recovers it.
		if exact := UtilizationFromDelayMD1(s, d); math.Abs(exact-rho) > 1e-9 {
			t.Errorf("exact inversion failed: %v vs %v", exact, rho)
		}
	}
}
