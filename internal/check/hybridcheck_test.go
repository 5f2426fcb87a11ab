package check

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/flowmodel"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestHybridSensitivity proves the tolerance band actually detects the
// canonical superposition bug — background that never reaches the metric
// loop — by comparing a hybrid run against a packet run carrying only the
// foreground. The background-weighted deviation must land outside the
// band on both metrics (the generator draws HN-SPF on seed 2 and D-SPF on
// seed 1).
func TestHybridSensitivity(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{1, 2} {
		trial, ops := genHybridTrial(rand.New(rand.NewSource(seed)))
		h, err := runHybridSide(trial, ops, true)
		if err != nil {
			t.Fatalf("seed %d hybrid run: %v", seed, err)
		}
		buggy := trial
		buggy.bg = traffic.NewMatrix(trial.g.NumNodes())
		p, err := runHybridSide(buggy, ops, false)
		if err != nil {
			t.Fatalf("seed %d foreground-only run: %v", seed, err)
		}
		unit := func(topology.LinkID) float64 { return 1 }
		w := flowmodel.Assign(trial.g, trial.bg, unit).LinkBPS
		cmpErr := compareHybrid(trial.g, w, h, p)
		if cmpErr == nil {
			t.Fatalf("seed %d (%v): dropped background passed the tolerance band", seed, trial.metric)
		}
		if !strings.Contains(cmpErr.Error(), "background-weighted") {
			t.Errorf("seed %d (%v): want the weighted-deviation bound to fire, got: %v",
				seed, trial.metric, cmpErr)
		}
	}
}

// TestCompareHybridBackstops exercises the two gross-divergence backstops
// on synthetic cost vectors, where the weighted statistic alone would
// stay in band.
func TestCompareHybridBackstops(t *testing.T) {
	t.Parallel()
	g := topology.Arpanet()
	n := g.NumLinks()
	base := make([]float64, n)
	w := make([]float64, n)
	for l := range base {
		base[l] = 30
		w[l] = 1
	}
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }

	// Paired off-setting spikes: zero weighted-mean deviation, but more
	// out-of-band links than the cap allows.
	h, p := clone(base), clone(base)
	for l := 0; l+1 < 2*(hybridMaxOutliers+1); l += 2 {
		h[l] += 25
		p[l+1] += 25
	}
	err := compareHybrid(g, w, h, p)
	if err == nil || !strings.Contains(err.Error(), "out of band") {
		t.Errorf("outlier backstop did not fire: %v", err)
	}

	// Wholesale rerouting under the outlier cap: tripling the cost of the
	// 25 busiest links (by a uniform-demand fluid assignment) on the packet
	// side only — with their background weight zeroed so the weighted
	// deviation ignores them — stays inside both the sys band and the
	// outlier cap, but SPF routes around those trunks on one side and
	// through them on the other.
	unit := func(topology.LinkID) float64 { return 1 }
	load := flowmodel.Assign(g, traffic.Uniform(g, 1000), unit).LinkBPS
	order := make([]int, n)
	for l := range order {
		order[l] = l
	}
	sort.Slice(order, func(i, j int) bool { return load[order[i]] > load[order[j]] })
	h, p = clone(base), clone(base)
	wz := clone(w)
	for _, l := range order[:25] {
		p[l] = 90
		wz[l] = 0
	}
	err = compareHybrid(g, wz, h, p)
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Errorf("agreement backstop did not fire: %v", err)
	}
}
