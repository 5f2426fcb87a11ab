package arpanet

// Oscillation-period estimation via autocorrelation: the oracle behind
// TestAblationAveragingLengthensPeriod, which tests the paper's claim that
// the HNM's averaging filter "increases the period of routing oscillations,
// thus reducing routing overhead" (§4.3).

import (
	"math"
	"testing"
)

// autocorrelation returns the normalized autocorrelation of ys at the
// given lag: r(k) = Σ (y_t−m)(y_{t+k}−m) / Σ (y_t−m)², in [-1, 1].
// Returns 0 for lags outside (0, n) or constant series.
func autocorrelation(ys []float64, lag int) float64 {
	n := len(ys)
	if lag <= 0 || lag >= n {
		return 0
	}
	m := 0.0
	for _, y := range ys {
		m += y
	}
	m /= float64(n)
	var num, den float64
	for t := 0; t < n; t++ {
		d := ys[t] - m
		den += d * d
		if t+lag < n {
			num += d * (ys[t+lag] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// dominantPeriod estimates the period of an oscillating series as the lag
// of the first local maximum of the autocorrelation that exceeds the
// threshold (e.g. 0.2), searching lags in [2, maxLag]. It returns 0 when
// no periodic structure is found — a constant or aperiodic series.
func dominantPeriod(ys []float64, maxLag int, threshold float64) int {
	if maxLag >= len(ys) {
		maxLag = len(ys) - 1
	}
	prev := autocorrelation(ys, 1)
	rising := false
	for lag := 2; lag <= maxLag; lag++ {
		r := autocorrelation(ys, lag)
		switch {
		case r > prev:
			rising = true
		case r < prev:
			if rising && prev > threshold {
				// prev was a local maximum above threshold.
				return lag - 1
			}
			rising = false
		}
		prev = r
	}
	if rising && prev > threshold {
		return maxLag
	}
	return 0
}

func sine(period int, n int) []float64 {
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = math.Sin(2 * math.Pi * float64(i) / float64(period))
	}
	return ys
}

func TestAutocorrelation(t *testing.T) {
	ys := sine(20, 200)
	// Perfect correlation at the period, anti-correlation at half.
	if r := autocorrelation(ys, 20); r < 0.85 {
		t.Errorf("r(period) = %v, want ~0.9", r)
	}
	if r := autocorrelation(ys, 10); r > -0.7 {
		t.Errorf("r(period/2) = %v, want strongly negative", r)
	}
	// Edge cases.
	if autocorrelation(ys, 0) != 0 || autocorrelation(ys, len(ys)) != 0 {
		t.Error("out-of-range lags should return 0")
	}
	flat := []float64{3, 3, 3, 3}
	if autocorrelation(flat, 1) != 0 {
		t.Error("constant series should return 0")
	}
}

func TestDominantPeriod(t *testing.T) {
	for _, period := range []int{8, 20, 35} {
		got := dominantPeriod(sine(period, 400), 100, 0.2)
		if got < period-1 || got > period+1 {
			t.Errorf("dominantPeriod(sine %d) = %d", period, got)
		}
	}
	// Aperiodic: a ramp has no local autocorrelation maximum.
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if got := dominantPeriod(ramp, 50, 0.2); got != 0 && got != 50 {
		// A pure ramp's autocorrelation decays monotonically; accept 0
		// (none found) — the maxLag fallback must not fire since r keeps
		// falling.
		t.Errorf("dominantPeriod(ramp) = %d, want 0", got)
	}
	if got := dominantPeriod([]float64{1, 2}, 10, 0.2); got != 0 {
		t.Errorf("tiny series period = %d, want 0", got)
	}
}

func TestDominantPeriodSquareWave(t *testing.T) {
	// Square waves are what trunk-utilization flip-flops look like.
	ys := make([]float64, 300)
	for i := range ys {
		if (i/15)%2 == 0 {
			ys[i] = 1
		}
	}
	got := dominantPeriod(ys, 100, 0.2)
	if got < 28 || got > 32 {
		t.Errorf("square-wave period = %d, want ~30", got)
	}
}
