package network

import (
	"fmt"
	"testing"

	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestShardEngineMatchesPacketForPacket runs each configuration on a
// one-shard adaptive shard.Sim and on a Network offered the Sim's own traffic
// (shard.Sim.Matrix), from one seed, with trunk 0 failed at 30 s and repaired
// at 60 s on both. The engines share the source, the hop latency and the
// arrival order, so every second they must hold the same packet ledger, the
// same count of originated updates and, on every link, the same advertised
// cost, exactly.
func TestShardEngineMatchesPacketForPacket(t *testing.T) {
	const (
		seconds = 120
		down    = 30 * sim.Second
		up      = 60 * sim.Second
	)
	maps := []struct {
		name   string
		g      *topology.Graph
		metric node.MetricKind
	}{
		{"arpanet-hnspf", topology.Arpanet(), node.HNSPF},
		{"arpanet-dspf", topology.Arpanet(), node.DSPF},
		{"arpanet-minhop", topology.Arpanet(), node.MinHop},
		{"hier4x8-hnspf", topology.Hierarchical(4, 8, 1), node.HNSPF},
	}
	for _, m := range maps {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", m.name, seed), func(t *testing.T) {
				s, err := shard.New(shard.Config{
					Graph: m.g, Shards: 1, Seed: seed, PktRate: 12, Dests: 4,
					Metric: m.metric, Adaptive: true,
					Faults: []shard.Fault{{Trunk: 0, At: down}, {Trunk: 0, At: up, Up: true}},
				})
				if err != nil {
					t.Fatal(err)
				}
				n := New(Config{Graph: m.g, Matrix: s.Matrix(), Metric: m.metric, Seed: seed})
				// Scheduled now, like the Sim's faults, so each fires first at its instant.
				_, _ = n.kernel.ScheduleAt(down, func(sim.Time) { n.SetTrunkDown(0) })
				_, _ = n.kernel.ScheduleAt(up, func(sim.Time) { n.SetTrunkUp(0) })
				for sec := sim.Time(1); sec <= seconds; sec++ {
					at := sec * sim.Second
					s.Run(at)
					n.Run(at)
					r := s.Report()
					if got, want := n.Conservation(), r.Conservation; got != want {
						t.Fatalf("at %v: network ledger %+v, shard %+v", at, got, want)
					}
					if got, want := n.win.updatesOrig, r.Originated; got != want {
						t.Fatalf("at %v: network originated %d updates, shard %d", at, got, want)
					}
					for l, ls := range n.links {
						if got, want := ls.Module.Cost(), s.LinkCost(topology.LinkID(l)); got != want {
							t.Fatalf("at %v: link %d advertises %v on the network, %v on the shard", at, l, got, want)
						}
					}
				}
				if c := n.Conservation(); c.BufferDrops == 0 {
					t.Errorf("ledger %+v: the load should overflow a buffer", c)
				}
			})
		}
	}
}
