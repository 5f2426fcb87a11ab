package check

import (
	"math/rand"
	"strings"
	"testing"
)

// campaignsPerRun is how many campaigns TestCampaignsPass runs, from the
// planted-bug census (DESIGN.md "Correctness harness"). No plant there is
// caught by a campaign alone, and the latest deterministic first catch is
// campaign 2. Six is the fewest campaigns whose trials draw every mode
// their generators know: seeds 1..6 give the hybrid pillar both metrics
// (D-SPF first at seed 2) and shard routing and shard custody all three
// (shard routing's min-hop first at seed 6). CI's checker-smoke job runs 25
// per push.
const campaignsPerRun = 6

// TestCampaignsPass is the in-tree slice of what cmd/checker runs in CI:
// every campaign over a seed range must pass every pillar, and Run must
// return one result per campaign in seed order.
func TestCampaignsPass(t *testing.T) {
	t.Parallel()
	results := Run(Options{Campaigns: campaignsPerRun, Seed: 1})
	if len(results) != campaignsPerRun {
		t.Fatalf("Run returned %d results, want %d", len(results), campaignsPerRun)
	}
	for i, r := range results {
		if r.Seed != 1+int64(i) {
			t.Errorf("result %d has seed %d, want %d", i, r.Seed, 1+i)
		}
		for _, f := range r.Failures {
			t.Errorf("campaign seed=%d:\n%s", r.Seed, f.Repro)
		}
	}
}

// TestCheckFlood: a healed cut resynchronises every PSN within a flood time.
func TestCheckFlood(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 8; seed++ {
		if f := CheckFlood(rand.New(rand.NewSource(seed)), seed); f != nil {
			t.Fatalf("flood check failed:\n%s", f.Repro)
		}
	}
}

func TestCheckMetric(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 20; seed++ {
		if f := CheckMetric(rand.New(rand.NewSource(seed)), seed); f != nil {
			t.Fatalf("metric check failed:\n%s", f.Repro)
		}
	}
}

func TestCheckScenario(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("scenario trials are the slow pillar")
	}
	for seed := int64(0); seed < 4; seed++ {
		if f := CheckScenario(rand.New(rand.NewSource(seed)), seed); f != nil {
			t.Fatalf("scenario check failed:\n%s", f.Repro)
		}
	}
}

// TestGenTopology: everything the generator emits is a valid connected
// graph, and the same rng state regenerates the same topology.
func TestGenTopology(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 50; seed++ {
		topo := GenTopology(rand.New(rand.NewSource(seed)), 30)
		if err := topo.G.Validate(); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, topo.Desc, err)
		}
		if !topo.G.Connected() {
			t.Fatalf("seed %d (%s): disconnected", seed, topo.Desc)
		}
		again := GenTopology(rand.New(rand.NewSource(seed)), 30)
		if again.Desc != topo.Desc || again.G.NumLinks() != topo.G.NumLinks() {
			t.Fatalf("seed %d not deterministic: %s vs %s", seed, topo.Desc, again.Desc)
		}
	}
}

// TestFailureString keeps the one-line rendering stable for CI logs.
func TestFailureString(t *testing.T) {
	t.Parallel()
	f := &Failure{Check: "spf-differential", Seed: 7, Topo: "ring(n=5)", Err: "boom"}
	s := f.String()
	for _, want := range []string{"spf-differential", "seed=7", "ring(n=5)", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Failure.String() = %q, missing %q", s, want)
		}
	}
}
