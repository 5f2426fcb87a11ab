package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The committed §5.4 script runs on the sharded engine at 1, 2 and 4 shards
// under every SPF metric: the merged trace, the report and every checkpoint
// are the same at each shard count, and every checkpoint passes its audits.
// The convergence audit checks every origin with no update in flight at
// each checkpoint, so it — and with it the repair's resync — is exercised,
// not skipped.
func TestShardedScriptAtEveryShardCount(t *testing.T) {
	text, err := os.ReadFile("../../examples/flapping/utah-collins.scn")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(strings.NewReader(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	g := topology.Arpanet()
	// The partitioner's 4-way cut of this map, which arpanetsim -shards 4
	// runs, crosses 1 ms trunks, and a barrier window per simulated
	// millisecond costs more than the rest of a metric's legs; so only
	// min-hop's 4-shard leg runs it. The others cut the west coast, the rest
	// of the mainland, and each satellite site alone, which crosses only the
	// 10-15 ms cross-country and the satellite trunks. Any cut must leave the
	// observables as they are.
	four := make([]int, g.NumNodes())
	for id := range four {
		switch name := g.Node(topology.NodeID(id)).Name; {
		case name == "HAWAII":
			four[id] = 2
		case name == "LONDON":
			four[id] = 3
		case topology.NodeID(id) > g.MustLookup("UTAH"):
			four[id] = 1
		}
	}
	for _, metric := range []node.MetricKind{node.HNSPF, node.DSPF, node.MinHop} {
		t.Run(metric.String(), func(t *testing.T) {
			t.Parallel()
			var trace, report string
			var ref Result
			for _, shards := range []int{1, 2, 4} {
				cfg := shard.Config{Graph: g, Shards: shards, Seed: 1987, PktRate: 1, Dests: 3,
					Adaptive: true, Metric: metric, MeasureSample: 5, TraceDrops: true}
				if shards == 4 && metric != node.MinHop {
					cfg.Partition = four
				}
				s, res, err := RunSharded(cfg, sc, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range res.Violations {
					t.Errorf("shards=%d: %s violation at %v: %s", shards, v.Check, v.At, v.Err)
				}
				if shards == 1 {
					trace, report, ref = s.TraceText(), s.Report().String(), res
					quiet := 0
					for _, cp := range res.Checkpoints {
						quiet += cp.QuietOrigins
					}
					t.Logf("convergence audited for %d of %d origins at %d checkpoints", quiet,
						len(res.Checkpoints)*g.NumNodes(), len(res.Checkpoints))
					if quiet == 0 {
						t.Errorf("no origin was quiet at any checkpoint: the convergence audit never ran")
					}
					continue
				}
				if s.TraceText() != trace {
					t.Errorf("shards=%d: merged trace differs from one shard's", shards)
				}
				if got := s.Report().String(); got != report {
					t.Errorf("shards=%d: report differs:\n%s\nwant:\n%s", shards, got, report)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("shards=%d: checkpoints differ:\n%+v\nwant:\n%+v", shards, res.Checkpoints, ref.Checkpoints)
				}
			}
		})
	}
}

// What the sharded engine cannot run is a setup error that names it, before
// anything is built.
func TestRunShardedRefuses(t *testing.T) {
	g := topology.Arpanet()
	cfg := shard.Config{Graph: g, Shards: 2, Seed: 1, PktRate: 1, Dests: 3, Adaptive: true, Metric: node.HNSPF}
	for _, tc := range []struct {
		sc   *Scenario
		want string
	}{
		{NewScenario("r", 60*sim.Second).RestartAt(10*sim.Second, "UTAH", 5*sim.Second), "node-down at 10.000000s"},
		{NewScenario("s", 60*sim.Second).SurgeAt(10*sim.Second, 2), "surge at 10.000000s"},
		{&Scenario{Name: "m", Duration: 60 * sim.Second, Events: []Event{{At: sim.Second, Kind: SwitchMatrix,
			Matrix: traffic.Uniform(g, 20_000)}}}, "matrix at 1.000000s"},
		{NewScenario("b", 60*sim.Second).BackgroundSurgeAt(10*sim.Second, 2), "surge background at 10.000000s"},
		{NewScenario("z", 60*sim.Second).DownAt(0, "UTAH", "COLLINS"), "down at 0.000000s"},
		{NewScenario("u", 60*sim.Second).DownAt(sim.Second, "UTAH", "NOWHERE"), `unknown node "NOWHERE"`},
		{NewScenario("n", 60*sim.Second).DownAt(sim.Second, "UTAH", "MIT"), "no trunk joins UTAH and MIT"},
	} {
		if _, _, err := RunSharded(cfg, tc.sc, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.sc.Name, err, tc.want)
		}
	}
}
