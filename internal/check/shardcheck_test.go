package check

import (
	"math/rand"
	"testing"

	"repro/internal/node"
)

// TestCheckShardRouting: adaptive runs at 1, 2 and 4 shards agree bit for
// bit — every link's cost series, the merged trace and the report — with
// the custody audits passing, on the ARPANET map and a small hierarchical
// graph. The test fails if seeds 1..4 stop drawing at least two metrics.
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
