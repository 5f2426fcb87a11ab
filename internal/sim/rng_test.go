package sim

import (
	"math"
	"testing"
)

// A (seed, node, stream) key is the whole of a stream: two generators made
// from it draw the same sequence.
func TestRNGReproducible(t *testing.T) {
	for _, key := range []struct {
		seed   int64
		node   int
		stream uint64
	}{{0, 0, 0}, {1987, 3, 1}, {-5, 1023, 2}, {math.MaxInt64, 1 << 20, 3}} {
		a, b := NewRNG(key.seed, key.node, key.stream), NewRNG(key.seed, key.node, key.stream)
		for i := 0; i < 1000; i++ {
			if x, y := a.next(), b.next(); x != y {
				t.Fatalf("key %+v: draw %d is %#x and %#x", key, i, x, y)
			}
		}
	}
}

// Streams one key apart — the next stream of a node, the same stream of the
// next node, the next seed — share no draw among their first thousand: a
// 64-bit collision by chance is far below one in 10^12.
func TestRNGNeighboursDiffer(t *testing.T) {
	const draws = 1000
	first := func(r RNG) map[uint64]bool {
		seen := make(map[uint64]bool, draws)
		for i := 0; i < draws; i++ {
			seen[r.next()] = true
		}
		return seen
	}
	for _, seed := range []int64{0, 1, 1987} {
		for node := 0; node < 4; node++ {
			for stream := uint64(0); stream < 4; stream++ {
				base := first(NewRNG(seed, node, stream))
				for name, r := range map[string]RNG{
					"next stream": NewRNG(seed, node, stream+1),
					"next node":   NewRNG(seed, node+1, stream),
					"next seed":   NewRNG(seed+1, node, stream),
				} {
					for i := 0; i < draws; i++ {
						if v := r.next(); base[v] {
							t.Fatalf("seed %d node %d stream %d: the %s repeats draw %#x", seed, node, stream, name, v)
						}
					}
				}
			}
		}
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7, 1, 2)
	for i := 0; i < 100_000; i++ {
		if u := r.Float64(); !(u >= 0 && u < 1) {
			t.Fatalf("Float64 = %v, outside [0, 1)", u)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 1000, math.MaxInt32} {
		for i := 0; i < 10_000; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d, outside [0, %d)", n, v, n)
			}
		}
	}
	// Every value of a small range comes up.
	var hits [5]int
	for i := 0; i < 1000; i++ {
		hits[r.Intn(len(hits))]++
	}
	for v, h := range hits {
		if h == 0 {
			t.Errorf("Intn(%d) never drew %d in 1000 draws", len(hits), v)
		}
	}
}

// The mean of 10^5 exponential draws lies within 2% of the mean asked for:
// the standard error is mean/√10^5 ≈ 0.32%, so the bound is about six of
// them. No draw is negative.
func TestRNGExpMean(t *testing.T) {
	const n = 100_000
	for _, mean := range []float64{1, 600, 1e-3} {
		r := NewRNG(42, 0, 1)
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Exp(mean)
			if !(v >= 0) {
				t.Fatalf("Exp(%v) drew %v", mean, v)
			}
			sum += v
		}
		if got := sum / n; math.Abs(got-mean)/mean > 0.02 {
			t.Errorf("mean of %d Exp(%v) draws = %v, want within 2%%", n, mean, got)
		}
	}
}
