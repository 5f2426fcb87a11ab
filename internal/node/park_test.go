package node_test

import (
	"testing"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// One parking rule for a silent source, node.Source's Arm and Fire, on both
// engines: PSN 0, the only source, is silenced by a matrix switch at 10 s,
// revived at 20 s and silenced again at 30 s. Its arrival count stands
// still while it is silent, grows while it offers, and is the same at every
// checkpoint on the network engine and the sharded one.
func TestSourceParksAndRevives(t *testing.T) {
	g := topology.Ring(5, topology.T56)
	on, off := traffic.NewMatrix(g.NumNodes()), traffic.NewMatrix(g.NumNodes())
	on.Set(0, 2, 20_000)
	sc := scenario.NewScenario("park", 40*sim.Second)
	sc.CheckEvery = 10 * sim.Second
	for i, m := range []*traffic.Matrix{off, on, off} {
		sc.Events = append(sc.Events, scenario.Event{At: sim.Time(i+1) * 10 * sim.Second, Kind: scenario.SwitchMatrix, Matrix: m})
	}
	net, err := scenario.Run(scenario.Config{Graph: g, Matrix: on, Metric: node.HNSPF, Seed: 3}, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, sharded, err := scenario.RunSharded(shard.Config{Graph: g, Shards: 2, Seed: 3, Traffic: on, Metric: node.HNSPF, Adaptive: true}, 0, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var offered []int64
	for i, cp := range net.Checkpoints {
		offered = append(offered, cp.Conservation.Offered)
		if s := sharded.Checkpoints[i].Conservation.Offered; s != cp.Conservation.Offered {
			t.Errorf("at %v the network engine counts %d arrivals, the sharded one %d", cp.At, cp.Conservation.Offered, s)
		}
	}
	if len(offered) != 4 || offered[0] == 0 || offered[1] != offered[0] || offered[2] <= offered[1] || offered[3] != offered[2] {
		t.Errorf("arrivals at 10, 20, 30 and 40 s: %v; want growth while offering, none while silent", offered)
	}
}
