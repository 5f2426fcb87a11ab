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
// (shard.Config.Matrix), from one seed, with trunk 0 failed and repaired 30 s
// later on both. The engines share the source, the hop latency, the arrival
// order and the measured window, so every second they must render the same
// Report — Table 1's rows, the packet ledger and the update counters — and
// advertise the same cost on every link, exactly.
//
// Three seeds a map fail trunk 0 at 30 s. In the outage runs it
// fails one tick after the first instant from 30 s on at which either
// direction has a user packet on its transmitter and another queued behind
// it, found by stepping a probe run without the fault: both engines must
// then flush user packets, and book them alike.
func TestShardEngineMatchesPacketForPacket(t *testing.T) {
	const seconds = 120
	maps := []struct {
		name   string
		g      *topology.Graph
		metric node.MetricKind
	}{
		{"arpanet-hnspf", topology.Arpanet(), node.HNSPF},
		{"arpanet-dspf", topology.Arpanet(), node.DSPF},
		{"arpanet-minhop", topology.Arpanet(), node.MinHop},
		{"arpanet-bf1969", topology.Arpanet(), node.BF1969},
		{"hier4x8-hnspf", topology.Hierarchical(4, 8, 1), node.HNSPF},
		{"hier4x8-bf1969", topology.Hierarchical(4, 8, 1), node.BF1969},
	}
	for _, m := range maps {
		cfg := func(seed int64) shard.Config {
			return shard.Config{Graph: m.g, Shards: 1, Seed: seed, PktRate: 12, Dests: 4, Metric: m.metric, Adaptive: true}
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", m.name, seed), func(t *testing.T) {
				r := runBothEngines(t, trunk0(cfg(seed), 30*sim.Second), seconds)
				if r.Conservation.BufferDrops == 0 {
					t.Errorf("ledger %+v: the load should overflow a buffer", r.Conservation)
				}
			})
		}
		t.Run(m.name+"/outage", func(t *testing.T) {
			c := cfg(1)
			probe := newNetworkFor(c)
			probe.Run(30 * sim.Second)
			for !loaded(&probe.links[0].Trunk) && !loaded(&probe.links[1].Trunk) {
				if !probe.kernel.Step() || probe.kernel.Now() > seconds*sim.Second {
					t.Fatalf("trunk 0 never held a user packet on its transmitter with another queued")
				}
			}
			down := probe.kernel.Now() + 1
			r := runBothEngines(t, trunk0(c, down), seconds)
			t.Logf("trunk 0 down at %v: %d user packets flushed", down, r.Conservation.OutageDrops)
			if r.Conservation.OutageDrops == 0 {
				t.Errorf("ledger %+v: the failure should flush user packets", r.Conservation)
			}
		})
	}
}

// newNetworkFor builds the unsharded engine over the traffic cfg's Sim offers.
func newNetworkFor(cfg shard.Config) *Network {
	return New(Config{Graph: cfg.Graph, Matrix: cfg.Matrix(), Metric: cfg.Metric, Seed: cfg.Seed})
}

// trunk0 scripts trunk 0 down at down and up 30 s later.
func trunk0(cfg shard.Config, down sim.Time) shard.Config {
	cfg.Faults = []shard.Fault{{Trunk: 0, At: down}, {Trunk: 0, At: down + 30*sim.Second, Up: true}}
	return cfg
}

// runBothEngines runs cfg, its Faults scripted on both engines, for seconds,
// comparing the rendered reports and every link's advertised cost each
// second, and returns the last report.
func runBothEngines(t testing.TB, cfg shard.Config, seconds int) Report {
	t.Helper()
	s, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := newNetworkFor(cfg)
	// Scheduled now, like the Sim's faults, so each fires first at its instant.
	for _, f := range cfg.Faults {
		l, set := topology.LinkID(2*f.Trunk), n.SetTrunkDown
		if f.Up {
			set = n.SetTrunkUp
		}
		_, _ = n.kernel.ScheduleAt(f.At, func(sim.Time) { set(l) })
	}
	var r Report
	for sec := sim.Time(1); sec <= sim.Time(seconds); sec++ {
		at := sec * sim.Second
		s.Run(at)
		n.Run(at)
		r = s.Report()
		if got, want := n.Report().String(), r.String(); got != want {
			t.Fatalf("at %v the reports differ:\nnetwork:\n%s\nshard:\n%s", at, got, want)
		}
		for l, ls := range n.links {
			if got, want := ls.Cost(), s.LinkCost(topology.LinkID(l)); got != want {
				t.Fatalf("at %v: link %d advertises %v on the network, %v on the shard", at, l, got, want)
			}
		}
	}
	return r
}

// loaded reports whether the trunk has a user packet on its transmitter and
// another in its queue.
func loaded(tr *node.Trunk) bool {
	if p := sending(tr); p == nil || p.IsRouting() {
		return false
	}
	queued := false
	tr.Queue.Scan(func(p *node.Packet) { queued = queued || !p.IsRouting() })
	return queued
}

// TestWindowIdentity holds, every second, the measured window's identity on
// both engines: OfferedPackets + InFlightAtOpen == DeliveredPackets + every
// drop row + InFlightPackets. The runs: the network engine without a
// warm-up and with one that ends at 40 s, and the sharded engine at one and
// two shards, each with trunk 3 down from 30 s to 60 s, which flushes user
// packets at this seed.
func TestWindowIdentity(t *testing.T) {
	const trunk, down, up = 3, 30 * sim.Second, 60 * sim.Second
	cfg := shard.Config{Graph: topology.Arpanet(), Seed: 1, PktRate: 12, Dests: 4, Metric: node.HNSPF, Adaptive: true,
		Faults: []shard.Fault{{Trunk: trunk, At: down}, {Trunk: trunk, At: up, Up: true}}}
	network := func(warmup sim.Time) func(sim.Time) Report {
		n := New(Config{Graph: cfg.Graph, Matrix: cfg.Matrix(), Metric: cfg.Metric, Seed: cfg.Seed, Warmup: warmup})
		_, _ = n.kernel.ScheduleAt(down, func(sim.Time) { n.SetTrunkDown(2 * trunk) })
		_, _ = n.kernel.ScheduleAt(up, func(sim.Time) { n.SetTrunkUp(2 * trunk) })
		return func(at sim.Time) Report { n.Run(at); return n.Report() }
	}
	sharded := func(shards int) func(sim.Time) Report {
		c := cfg
		c.Shards = shards
		s, err := shard.New(c)
		if err != nil {
			t.Fatal(err)
		}
		return func(at sim.Time) Report { s.Run(at); return s.Report() }
	}
	for _, tc := range []struct {
		name string
		run  func(sim.Time) Report
	}{
		{"network", network(0)},
		{"network-warmup40s", network(40 * sim.Second)},
		{"shard-1", sharded(1)},
		{"shard-2", sharded(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Report
			for sec := sim.Time(1); sec <= 120; sec++ {
				r = tc.run(sec * sim.Second)
				in := r.OfferedPackets + r.InFlightAtOpen
				out := r.DeliveredPackets + r.BufferDrops + r.LoopDrops + r.NoRouteDrops + r.OutageDrops + r.InFlightPackets
				if in != out {
					t.Fatalf("at %v s: offered %d + in flight at the open %d != accounted %d: %+v", sec, r.OfferedPackets, r.InFlightAtOpen, out, r)
				}
			}
			if r.OfferedPackets == 0 || r.DeliveredPackets == 0 || r.Conservation.OutageDrops == 0 {
				t.Errorf("degenerate run: %+v", r)
			}
		})
	}
}
