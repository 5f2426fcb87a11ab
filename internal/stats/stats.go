// Package stats provides the small statistical estimators used by every
// experiment in the repository: streaming mean/variance (Welford), min/max
// tracking, fixed-bucket histograms and time series.
package stats

import (
	"fmt"
	"math"
)

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

// String renders mean ± stddev [min, max] (n).
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.4g [%.4g, %.4g] (n=%d)", w.Mean(), w.StdDev(), w.min, w.max, w.n)
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi). Values outside
// the range are clamped into the first/last bucket.
type Histogram struct {
	Lo, Hi  float64
	buckets []int64
	w       Welford
}

// NewHistogram creates a histogram with n equal-width buckets over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.w.Add(x)
	i := int(float64(len(h.buckets)) * (x - h.Lo) / (h.Hi - h.Lo))
	i = min(max(i, 0), len(h.buckets)-1)
	h.buckets[i]++
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) from the
// bucket midpoints. Exact for values that fall inside the range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.w.N() == 0 {
		return 0
	}
	target := int64(q * float64(h.w.N()))
	if target >= h.w.N() {
		target = h.w.N() - 1
	}
	var cum int64
	width := (h.Hi - h.Lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return h.Lo + (float64(i)+0.5)*width
		}
	}
	return h.Hi
}

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
