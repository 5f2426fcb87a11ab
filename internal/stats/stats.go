// Package stats provides the small statistical estimators used by every
// experiment in the repository: streaming mean/variance (Welford), min/max
// tracking and time series.
package stats

import "math"

// Welford accumulates a streaming mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 with no observations).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 with no observations).
func (w *Welford) Max() float64 { return w.max }

// Series is an (x, y) series collected during a run, e.g. link utilization
// sampled over time. Points stay in insertion order.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// MeanY returns the mean of the Y values.
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	sum := 0.0
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}
