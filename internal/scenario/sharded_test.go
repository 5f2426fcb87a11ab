package scenario

import (
	"math/rand"
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
				s, res, err := RunSharded(cfg, 0, sc, nil)
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
// anything is built: a fluid background, a trunk event or a matrix switch on
// the static plane, and a script that does not resolve against the map.
func TestRunShardedRefuses(t *testing.T) {
	g := topology.Arpanet()
	cfg := shard.Config{Graph: g, Shards: 2, Seed: 1, PktRate: 1, Dests: 3, Adaptive: true, Metric: node.HNSPF}
	static := cfg
	static.Adaptive = false
	for _, tc := range []struct {
		cfg  shard.Config
		sc   *Scenario
		want string
	}{
		{cfg, NewScenario("b", 60*sim.Second).BackgroundSurgeAt(10*sim.Second, 2), "surge background at 10.000000s"},
		{static, NewScenario("r", 60*sim.Second).RestartAt(10*sim.Second, "UTAH", 5*sim.Second), "down at 10.000000s needs the adaptive plane"},
		{static, &Scenario{Name: "m", Duration: 60 * sim.Second, Events: []Event{{At: sim.Second, Kind: SwitchMatrix,
			Matrix: traffic.Uniform(g, 20_000)}}}, "matrix at 1.000000s needs the adaptive plane"},
		{cfg, NewScenario("u", 60*sim.Second).DownAt(sim.Second, "UTAH", "NOWHERE"), `unknown node "NOWHERE"`},
		{cfg, NewScenario("n", 60*sim.Second).DownAt(sim.Second, "UTAH", "MIT"), "no trunk joins UTAH and MIT"},
		{cfg, NewScenario("x", 60*sim.Second).RestartAt(sim.Second, "NOWHERE", sim.Second), `node-down at 1.000000s: unknown node "NOWHERE"`},
	} {
		if _, _, err := RunSharded(tc.cfg, 0, tc.sc, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.sc.Name, err, tc.want)
		}
	}
}

// Every event kind but the fluid background's runs on both engines: a
// script drawn from a seed — a failure and its repair, a flap, node restarts
// (one overlapping a separate failure at the node, which it must leave
// down), surges, matrix switches that silence and revive sources, an
// explicit checkpoint at 0 s and a trunk failure there, and a checkpoint
// every 10 s — over a gravity load with a warm-up renders the same Report
// and checkpoints on the network engine and at 1, 2 and 4 shards, with no
// violation.
func TestEveryEventKindOnEitherEngine(t *testing.T) {
	t.Parallel()
	g := topology.Arpanet()
	load := traffic.Gravity(g, topology.ArpanetWeights(), 250_000)
	quiet := load.Clone()
	for _, id := range []topology.NodeID{3, 11, 20} {
		for d := range topology.NodeID(g.NumNodes()) {
			quiet.Set(id, d, 0)
		}
	}
	rng := rand.New(rand.NewSource(26))
	trunk := func() (string, string) {
		l := g.Link(topology.LinkID(2 * rng.Intn(g.NumTrunks())))
		return g.Node(l.From).Name, g.Node(l.To).Name
	}
	at := func(lo, hi float64) sim.Time { return sim.FromSeconds(lo + (hi-lo)*rng.Float64()) }
	sc := NewScenario("every-kind", 100*sim.Second)
	sc.CheckEvery = 10 * sim.Second
	a, b := trunk()
	sc.DownAt(0, a, b).CheckpointAt(0).UpAt(at(5, 15), a, b)
	a, b = trunk()
	sc.DownAt(at(20, 25), a, b).RestartAt(at(25, 30), a, at(5, 10)).UpAt(at(45, 50), a, b)
	a, b = trunk()
	sc.FlapAt(at(30, 40), a, b, 4*sim.Second, 3).RestartAt(60*sim.Second, b, 6*sim.Second)
	sc.SurgeAt(at(35, 45), 1.5).SurgeAt(70*sim.Second, 0.8).CheckpointAt(at(50, 90))
	sc.Events = append(sc.Events, Event{At: at(40, 55), Kind: SwitchMatrix, Matrix: quiet},
		Event{At: at(60, 80), Kind: SwitchMatrix, Matrix: load})
	const warmup = 30 * sim.Second

	want, err := Run(Config{Graph: g, Matrix: load, Metric: node.HNSPF, Seed: 1987, Warmup: warmup}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) > 0 || want.Report.Conservation.OutageDrops == 0 {
		t.Errorf("network engine: violations %v, ledger %+v; want none and an outage flush", want.Violations, want.Report.Conservation)
	}
	for _, shards := range []int{1, 2, 4} {
		cfg := shard.Config{Graph: g, Shards: shards, Seed: 1987, Traffic: load, Adaptive: true, Metric: node.HNSPF}
		_, got, err := RunSharded(cfg, warmup, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report.String() != want.Report.String() || !reflect.DeepEqual(got.Checkpoints, want.Checkpoints) || len(got.Violations) > 0 {
			t.Errorf("%d shards rendered\n%s%+v\n%v\nthe network engine\n%s%+v", shards, got.Report, got.Checkpoints, got.Violations,
				want.Report, want.Checkpoints)
		}
	}
}
