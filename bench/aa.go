package main

import (
	"fmt"
	"io"
	"math"
)

// runAA is the benchmark's own steadiness check, the one the driver makes
// before it accepts the benchmark: n untraced passes over the workloads,
// split alternately into two sets that share their seeds (pass 2k and 2k+1
// both use seed+k, and which set goes first alternates). For every
// end-to-end metric and workload it prints both sets' medians and their
// relative gap, and each set's spread over its seeds — the distance between
// the quartiles as a share of the median. It fails when a gap or a spread
// (set-up time's spread excepted, as in the driver) exceeds the metric's
// bound.
func runAA(out io.Writer, ws []*workload, n int, seed int64, seconds float64) int {
	type key struct {
		set            int
		workload, name string
	}
	vals := map[key][]float64{}
	code := 0
	for k := 0; k < n/2; k++ {
		for i := 0; i < 2; i++ {
			set := (k + i) % 2
			fmt.Fprintf(out, "== A/A pass %d of %d: set %c, seed %d\n", 2*k+i+1, n, 'A'+set, seed+int64(k))
			for _, w := range ws {
				p := measure(out, w, seed+int64(k), seconds, false)
				res := p.result(out)
				if !res.Correct || res.Failed > 0 {
					code = 1
				}
				for _, m := range aaMetrics {
					kk := key{set, w.name, m.Name}
					vals[kk] = append(vals[kk], median(p.values(m.Name)))
				}
			}
		}
	}
	fmt.Fprintf(out, "\n%-18s %-12s %12s %12s %8s %9s %9s %7s\n",
		"workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
	for _, w := range ws {
		for _, m := range aaMetrics {
			a, b := vals[key{0, w.name, m.Name}], vals[key{1, w.name, m.Name}]
			gap := math.Abs(ratio(median(b), median(a)) - 1)
			sa, sb := spread(a), spread(b)
			verdict := ""
			switch {
			case m.Bound == 0:
				verdict = "  (not gated)"
			case gap > m.Bound || (m.Name != "setup_s" && math.Max(sa, sb) > m.Bound):
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-12s %12.4f %12.4f %7.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, m.Name, median(a), median(b), 100*gap, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return code
}

// aaMetrics are the end-to-end metrics plus, for the record, the ungated
// measured window.
var aaMetrics = append(append([]metricSpec(nil), endToEnd...), runWall)

// spread is the interquartile distance as a share of the median; 0 for
// fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}
