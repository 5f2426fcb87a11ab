package node

import (
	"math"
	"testing"
)

// A source never fires twice at one instant: every gap is at least one
// tick, at any finite positive rate, from rates whose gaps saturate the
// clock to rates whose gaps all round to zero.
func TestGapAtLeastOneTick(t *testing.T) {
	for _, rate := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-3, 1, 1e3, 1e6, 1e9, 1e300, math.MaxFloat64} {
		d := NewDraws(3, 5)
		for i := 0; i < 10_000; i++ {
			if g := d.Gap(rate); g < 1 {
				t.Fatalf("rate %v: gap %d is %v, want at least one tick", rate, i, g)
			}
		}
	}
}
