package scenario_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	arpanet "repro"
)

// A scenario runs over many seeds through arpanet.RunSeeds, which runs each
// seed in a simulator of its own on a pool of workers. These tests hold that
// batch to the scenario's contract from outside the package.

// batchSpec is a five-PSN ring that loses and regains one trunk, checked
// every 40 s.
func batchSpec() arpanet.Spec {
	ring := arpanet.Ring(5, arpanet.T56)
	return arpanet.Spec{Topology: ring, Traffic: ring.UniformTraffic(100_000), Seed: 1, WarmupSeconds: 20,
		Script: "duration 200\ncheck-every 40\nat 60 down N0 N1\nat 110 up N0 N1\n"}
}

// TestBatchDeterministicAcrossWorkerCounts: a batch is byte-for-byte the same
// at any GOMAXPROCS. Workers write disjoint result slots, so parallelism
// cannot leak into the physics.
func TestBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	s := batchSpec()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var want []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rs, err := arpanet.RunSeeds(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if procs > 1 {
			if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d diverged from the sequential batch", procs)
			}
			continue
		}
		want = got
		for i, r := range rs {
			if r.Seed != s.Seed+int64(i) || len(r.Violations) != 0 || len(r.Checkpoints) != 5 {
				t.Errorf("result %d: seed %d, %d checkpoints, violations %+v; want seed %d, 5 checkpoints, none",
					i, r.Seed, len(r.Checkpoints), r.Violations, s.Seed+int64(i))
			}
		}
		if rs[0].Report.DeliveredPackets == rs[1].Report.DeliveredPackets {
			t.Error("different seeds produced identical runs: seeding is broken")
		}
	}
}

// TestBatchSurvivesEmptySeedList: an empty batch neither hangs nor panics; it
// is refused by name, with no results.
func TestBatchSurvivesEmptySeedList(t *testing.T) {
	rs, err := arpanet.RunSeeds(batchSpec(), 0)
	if err == nil || !strings.Contains(err.Error(), "RunSeeds n 0") || rs != nil {
		t.Errorf("RunSeeds(spec, 0) = %d results, %v; want an error naming n", len(rs), err)
	}
}

// TestBatchReportsSetupErrors: a script naming an unknown PSN fails the
// batch with an error, not a panic inside a worker.
func TestBatchReportsSetupErrors(t *testing.T) {
	s := batchSpec()
	s.Script = "duration 60\nat 10 down N0 X9\n"
	if _, err := arpanet.RunSeeds(s, 2); err == nil || !strings.Contains(err.Error(), `unknown node "X9"`) {
		t.Errorf("RunSeeds with an unknown PSN scripted: err = %v", err)
	}
}
