package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if got := w.Var(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.StdDev() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Var() != 0 {
		t.Error("variance of a single sample should be 0")
	}
	if w.Min() != 3.5 || w.Max() != 3.5 {
		t.Error("min/max of a single sample should equal it")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("util")
	for i := 0; i < 4; i++ {
		s.Add(float64(i), float64(i*i))
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.MeanY(); got != (0+1+4+9)/4.0 {
		t.Errorf("MeanY = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("e")
	if s.MeanY() != 0 {
		t.Error("MeanY of empty series should be 0")
	}
}

func TestWelfordGaussian(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.NormFloat64()*2 + 10)
	}
	if math.Abs(w.Mean()-10) > 0.05 {
		t.Errorf("gaussian mean = %v, want ~10", w.Mean())
	}
	if math.Abs(w.StdDev()-2) > 0.05 {
		t.Errorf("gaussian sd = %v, want ~2", w.StdDev())
	}
}
