package equilibrium

import (
	"math"
	"testing"
)

// naiveRemain replicates the pre-table route scan: the reference the
// prefix-sum tables must reproduce.
func naiveRemain(routes []routeStat, w float64) float64 {
	var remain float64
	for _, r := range routes {
		keep := r.shedAt + 1 - w
		if keep >= 1 {
			remain += r.rate
		} else if keep > 0 {
			remain += r.rate * keep
		}
	}
	return remain
}

// TestResponseTablesMatchScan checks the O(log R) tables against the
// original O(R) scan at many costs — including the integer and
// half-integer points Figure 8 is read at and the exact threshold values
// where the binary-search boundaries sit.
func TestResponseTablesMatchScan(t *testing.T) {
	mo := model()
	costs := []float64{1, 1.25, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 7, 8, 9, 10}
	for _, rs := range mo.routes {
		for _, r := range rs[:min(len(rs), 3)] {
			costs = append(costs, r.shedAt, r.shedAt+1, r.shedAt+0.5)
		}
	}
	for li := range mo.routes {
		for _, w := range costs {
			want := naiveRemain(mo.routes[li], w)
			got := mo.tables[li].remain(w)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("link %d remain(%v) = %v, want %v", li, w, got, want)
			}
		}
	}
	// Aggregate map against a scan over every link's routes.
	for _, w := range costs {
		var want, base float64
		for li := range mo.routes {
			want += naiveRemain(mo.routes[li], w)
			base += mo.base[li]
		}
		want /= base
		if got := mo.Response(w); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Response(%v) = %v, want %v", w, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
