package check

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// TestCampaignsPass is the in-tree slice of what cmd/checker runs in CI:
// every campaign over a seed range must pass every pillar.
func TestCampaignsPass(t *testing.T) {
	t.Parallel()
	n := 20
	if testing.Short() {
		n = 5
	}
	for _, r := range Run(Options{Campaigns: n, Seed: 1}) {
		for _, f := range r.Failures {
			t.Errorf("campaign seed=%d:\n%s", r.Seed, f.Repro)
		}
	}
}

// TestCampaignDeterminism runs the same seed range twice with different
// worker counts: the per-campaign logs must be byte-identical, which is
// what makes a CI failure reproducible from its seed alone. GOMAXPROCS is
// process-wide, so the test does not run in parallel with the others.
func TestCampaignDeterminism(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := Run(Options{Campaigns: n, Seed: 400})
	runtime.GOMAXPROCS(8)
	b := Run(Options{Campaigns: n, Seed: 400})
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Log != b[i].Log {
			t.Errorf("campaign %d differs between worker counts:\n  %s\n  %s", i, a[i].Log, b[i].Log)
		}
		if a[i].Seed != 400+int64(i) {
			t.Errorf("campaign %d has seed %d, want %d", i, a[i].Seed, 400+int64(i))
		}
	}
}

// TestCheckFloodCleanAndDeterministic: the reliable flood delivers under
// drops and partitions, and a trial replays identically from its seed.
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
