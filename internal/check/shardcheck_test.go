package check

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/topology"
)

// TestCheckShardRouting is the satellite acceptance criterion: sharded and
// unsharded adaptive runs agree — exactly where the models share code,
// within the documented tolerance where they do not — on the ARPANET map
// and a small hierarchical graph, across all three metrics (the seeds
// below cover MinHop, D-SPF and HN-SPF draws; see the skipped-draw log).
func TestCheckShardRouting(t *testing.T) {
	t.Parallel()
	n := int64(4)
	if testing.Short() {
		n = 1
	}
	metrics := map[node.MetricKind]bool{}
	for seed := int64(1); seed <= n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trial, _ := genShardTrial(rand.New(rand.NewSource(seed)))
		metrics[trial.metric] = true
		if f := CheckShardRouting(rng, seed); f != nil {
			t.Fatalf("shard differential failed (seed %d):\n%s", seed, f.Repro)
		}
	}
	if !testing.Short() && len(metrics) < 2 {
		t.Errorf("seeds 1..%d drew only %v; widen the seed range", n, metrics)
	}
}

// TestCheckShardCustody drives the custody torture: random explicit cuts,
// congestion-level load and fault scripts must leave the user and control
// custody ledgers balanced at every barrier, and the cut itself invisible.
func TestCheckShardCustody(t *testing.T) {
	t.Parallel()
	n := int64(5)
	if testing.Short() {
		n = 2
	}
	for seed := int64(1); seed <= n; seed++ {
		if f := CheckShardCustody(rand.New(rand.NewSource(seed)), seed); f != nil {
			t.Fatalf("shard custody torture failed (seed %d):\n%s", seed, f.Repro)
		}
	}
}

// TestShardDiffCalibration is the sweep behind the tolerance constants in
// shardcheck.go: it reruns the cross-model leg over many generated trials
// and reports, per metric, the worst observed deviation on each judged
// statistic. Skipped unless SHARD_CALIB=<trials> is set — rerun it (and
// refresh the measured-basis comment) whenever either engine's measurement
// or metric path changes.
//
//	SHARD_CALIB=40 go test ./internal/check -run TestShardDiffCalibration -v
func TestShardDiffCalibration(t *testing.T) {
	trials, err := strconv.Atoi(os.Getenv("SHARD_CALIB"))
	if err != nil || trials <= 0 {
		t.Skip("calibration sweep; set SHARD_CALIB=<trials> to run")
	}
	type agg struct {
		trials, maxOut         int
		maxAbs, maxSys, maxRel float64
		minAgree               float64
	}
	sums := map[node.MetricKind]*agg{}
	for seed := int64(1); seed <= int64(trials); seed++ {
		trial, ops := genShardTrial(rand.New(rand.NewSource(seed)))
		ref, err := runShardLeg(trial, ops, 1)
		if err != nil {
			t.Fatalf("seed %d shard leg: %v", seed, err)
		}
		nm, err := runNetworkLeg(trial, ops, ref.dests)
		if err != nil {
			t.Fatalf("seed %d network leg: %v", seed, err)
		}
		sm := seriesMeans(ref.series)
		a := sums[trial.metric]
		if a == nil {
			a = &agg{minAgree: 1}
			sums[trial.metric] = a
		}
		a.trials++
		var num, den float64
		out := 0
		for l := range sm {
			if d := math.Abs(sm[l] - nm[l]); d > a.maxAbs {
				a.maxAbs = d
			}
			num += sm[l] - nm[l]
			den += (sm[l] + nm[l]) / 2
			if denom := math.Max(sm[l], nm[l]); denom > 0 {
				if rel := math.Abs(sm[l]-nm[l]) / denom; rel > shardDspfRelOut {
					out++
					if rel > a.maxRel {
						a.maxRel = rel
					}
				}
			}
		}
		if den > 0 {
			if sys := math.Abs(num / den); sys > a.maxSys {
				a.maxSys = sys
			}
		}
		if out > a.maxOut {
			a.maxOut = out
		}
		if trial.metric == node.DSPF {
			if frac := nextHopAgreement(trial.g, sm, nm); frac < a.minAgree {
				a.minAgree = frac
			}
		}
		t.Logf("seed %d: %-7v %-24s faults=%d out=%d", seed, trial.metric, trial.topoName, len(ops), out)
	}
	for metric, a := range sums {
		t.Logf("%v over %d trials: max|Δmean|=%.4f maxSys=%.4f outliers<=%d maxRel=%.3f minAgree=%.3f",
			metric, a.trials, a.maxAbs, a.maxSys, a.maxOut, a.maxRel, a.minAgree)
	}
}

// TestCompareShardNetworkDetects proves each metric's comparison standard
// actually rejects divergence, on synthetic cost vectors: the differential
// must not be a tautology.
func TestCompareShardNetworkDetects(t *testing.T) {
	t.Parallel()
	g := topology.Arpanet()
	n := g.NumLinks()
	flat := func(v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	trial := func(m node.MetricKind) shardTrial { return shardTrial{g: g, metric: m} }

	// MinHop: any difference at all is a failure.
	sm, nm := flat(1), flat(1)
	nm[3] = 1 + 1e-12
	if err := compareShardNetwork(trial(node.MinHop), sm, nm); err == nil {
		t.Error("MinHop comparison accepted unequal costs")
	}
	if err := compareShardNetwork(trial(node.MinHop), flat(1), flat(1)); err != nil {
		t.Errorf("MinHop comparison rejected equal costs: %v", err)
	}

	// HN-SPF: a single link past the per-link bound fails.
	sm, nm = flat(20), flat(20)
	nm[7] = 20 + shardHNMaxDiff + 0.1
	if err := compareShardNetwork(trial(node.HNSPF), sm, nm); err == nil {
		t.Error("HN-SPF comparison accepted an out-of-band link")
	} else if !strings.Contains(err.Error(), "HN-SPF") {
		t.Errorf("unexpected HN-SPF failure shape: %v", err)
	}

	// D-SPF: a systematic scale shift fails on the mean relative deviation.
	sm, nm = flat(30), flat(30*(1+2*shardDspfSysMax))
	if err := compareShardNetwork(trial(node.DSPF), sm, nm); err == nil {
		t.Error("D-SPF comparison accepted a systematic scale shift")
	} else if !strings.Contains(err.Error(), "relative cost deviation") {
		t.Errorf("unexpected D-SPF failure shape: %v", err)
	}

	// D-SPF: offsetting spikes dodge the systematic bound but trip the
	// outlier cap.
	sm, nm = flat(30), flat(30)
	for l := 0; l < 2*(shardDspfMaxOut+1); l += 2 {
		nm[l] *= 1 + 2*shardDspfRelOut
		nm[l+1] /= 1 + 2*shardDspfRelOut
	}
	if err := compareShardNetwork(trial(node.DSPF), sm, nm); err == nil {
		t.Error("D-SPF comparison accepted paired out-of-band spikes")
	} else if !strings.Contains(err.Error(), "relative deviation") {
		t.Errorf("unexpected outlier failure shape: %v", err)
	}
}

// TestRandPartition pins the patch-up rule: every shard non-empty, every
// assignment in range, deterministic for a fixed rng state.
func TestRandPartition(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, shards := 5+rng.Intn(40), 2+rng.Intn(5)
		part := randPartition(rng, n, shards)
		count := make([]int, shards)
		for i, p := range part {
			if p < 0 || p >= shards {
				t.Fatalf("seed %d: node %d assigned to shard %d of %d", seed, i, p, shards)
			}
			count[p]++
		}
		for s, c := range count {
			if c == 0 {
				t.Fatalf("seed %d: shard %d owns no nodes (n=%d shards=%d)", seed, s, n, shards)
			}
		}
	}
}

// TestClampedMeanPktBits pins the shard↔network traffic conversion factor
// against a direct numeric integration of the clamped exponential.
func TestClampedMeanPktBits(t *testing.T) {
	t.Parallel()
	// E[min(max(X, lo), hi)] for X ~ Exp(mean), integrated by quadrature.
	const steps = 4_000_000
	lo, hi, mean := node.MinPktBits, node.MaxPktBits, node.MeanPktBits
	var want float64
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		x := -mean * math.Log(1-u)
		want += math.Min(math.Max(x, lo), hi)
	}
	want /= steps
	if got := network.ClampedMeanPktBits(); math.Abs(got-want) > 0.5 {
		t.Errorf("ClampedMeanPktBits() = %.3f, quadrature says %.3f", got, want)
	}
}
