package scenario

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestBatchDeterministicAcrossWorkerCounts: RunBatch must produce
// byte-for-byte identical results at any GOMAXPROCS — each seed runs in
// its own Network and workers write disjoint slots, so parallelism cannot
// leak into the physics.
func TestBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := ringCfg(node.HNSPF, 0) // seed comes from the batch
	g := cfg.Graph
	cfg.Matrix = traffic.Uniform(g, 100000)
	sc := NewScenario("batch", 200*sim.Second)
	sc.CheckEvery = 40 * sim.Second
	sc.DownAt(60*sim.Second, g.Node(0).Name, g.Node(1).Name)
	sc.UpAt(110*sim.Second, g.Node(0).Name, g.Node(1).Name)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sequential, err := RunBatch(cfg, sc, seeds)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := json.Marshal(sequential)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		runtime.GOMAXPROCS(workers)
		parallel, err := RunBatch(cfg, sc, seeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baseline) {
			t.Errorf("GOMAXPROCS=%d diverged from the sequential batch", workers)
		}
	}

	// The batch really ran distinct seeds, slotted in order.
	for i, r := range sequential {
		if r.Seed != seeds[i] {
			t.Errorf("result %d carries seed %d, want %d", i, r.Seed, seeds[i])
		}
		if len(r.Violations) != 0 {
			t.Errorf("seed %d: violations %+v", r.Seed, r.Violations)
		}
	}
	if sequential[0].Report.DeliveredPackets == sequential[1].Report.DeliveredPackets {
		t.Error("different seeds produced identical runs — seeding is broken")
	}
}

// TestBatchSurvivesEmptySeedList: degenerate input should not hang or
// panic.
func TestBatchSurvivesEmptySeedList(t *testing.T) {
	cfg := ringCfg(node.MinHop, 0)
	sc := NewScenario("empty", 10*sim.Second)
	res, err := RunBatch(cfg, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("got %d results for zero seeds", len(res))
	}
}

// TestBatchReportsSetupErrors: a bad scenario surfaces as an error, not a
// panic inside a worker.
func TestBatchReportsSetupErrors(t *testing.T) {
	cfg := ringCfg(node.MinHop, 0)
	sc := NewScenario("bad", 10*sim.Second).DownAt(sim.Second, "NOPE", "ALSO-NOPE")
	if _, err := RunBatch(cfg, sc, []int64{1, 2}); err == nil {
		t.Error("unknown node should fail the batch")
	}
}
