package arpanet

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The engine does not show in a Result, nor does the shard count: Run at
// Shards 0, 1, 2 and 4 renders the same Report, audits the same
// checkpoints, records the same trace and samples the same tracked series,
// bit for bit, as internal/network does through scenario.Run, for
//   - Table 1's two legs — D-SPF on the 280 kbps gravity matrix, then HN-SPF
//     at the paper's +13% load — each after the 100 s warm-up, over a
//     measured window shortened to 10 s, the first into a ring the run
//     overflows;
//   - per-node traffic under HN-SPF, under HN-SPF without its averaging and
//     its minimum-change threshold (Spec.Ablations), and under BF-1969 on
//     hier:4x8, with one trunk failed and repaired by a script (offered to
//     internal/network as the same draws in a matrix), that trunk tracked;
//   - multipath forwarding under min-hop on TestDeterministicSimulation's
//     2×2 grid, loaded until buffers overflow: opposite corners draw one of
//     two first hops, both of one corner's tracked.
func TestRunEngineDoesNotShow(t *testing.T) {
	t.Parallel()
	arpa := Arpanet1987()
	topo, err := ParseTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, rest, _ := strings.Cut(topo.Trunks()[0], "-")
	b, _, _ := strings.Cut(rest, " ")
	script := "duration 120\nat 30 down " + a + " " + b + "\nat 60 up " + a + " " + b + "\n"
	arpaTrack, hierTrack := [][2]string{{"UTAH", "COLLINS"}, {"COLLINS", "UTAH"}}, [][2]string{{a, b}}
	grid := Grid(2, 2, T56)
	for _, spec := range []Spec{
		{Topology: arpa, Traffic: arpa.GravityTraffic(ArpanetWeights(), 280_000), Metric: DSPF, Seed: 1987, WarmupSeconds: 100, Seconds: 110,
			Track: arpaTrack, TraceCapacity: 2000},
		{Topology: arpa, Traffic: arpa.GravityTraffic(ArpanetWeights(), 280_000*413.99/366.26), Metric: HNSPF, Seed: 1987, WarmupSeconds: 100, Seconds: 110,
			Track: arpaTrack, TraceCapacity: 1 << 15},
		{Topology: topo, NodeTraffic: &NodeTraffic{Rate: 12, Dests: 4}, Metric: HNSPF, Seed: 1, Script: script, Track: hierTrack, TraceCapacity: 1 << 15},
		{Topology: topo, NodeTraffic: &NodeTraffic{Rate: 12, Dests: 4}, Metric: HNSPF, Seed: 1, Script: script, Track: hierTrack, TraceCapacity: 1 << 15,
			Ablations: []HNMOption{HNMWithoutAveraging(), HNMWithoutMinChange()}},
		{Topology: topo, NodeTraffic: &NodeTraffic{Rate: 12, Dests: 4}, Metric: BF1969, Seed: 1, Script: script, Track: hierTrack, TraceCapacity: 1 << 15},
		{Topology: grid, Traffic: grid.UniformTraffic(300_000), Metric: MinHop, Seed: 5, WarmupSeconds: 30, Seconds: 120, Multipath: true,
			Track: [][2]string{{"R0.C0", "R0.C1"}, {"R0.C0", "R1.C0"}}, TraceCapacity: 1 << 15},
	} {
		name := spec.Metric.String()
		if len(spec.Ablations) > 0 {
			name += " ablated"
		}
		if spec.Multipath {
			name += " multipath"
		}
		want := onNetwork(t, name, spec)
		for _, shards := range []int{0, 1, 2, 4} {
			spec.Shards = shards
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s, Shards %d: %v", name, shards, err)
			}
			if len(res.Violations) > 0 {
				t.Errorf("%s, Shards %d: %v", name, shards, res.Violations)
			}
			if got := render(res.Result, res.Trace, res.Tracked); got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range min(len(g), len(w)) {
					if g[i] != w[i] {
						t.Errorf("%s, Shards %d: line %d is\n%s\ninternal/network rendered\n%s", name, shards, i+1, g[i], w[i])
						break
					}
				}
				t.Errorf("%s, Shards %d rendered %d lines, internal/network %d", name, shards, len(g), len(w))
			}
			if res.Stats.Events == 0 || res.Stats.Barrier.Windows == 0 {
				t.Errorf("%s, Shards %d: no engine counters: %+v", name, shards, res.Stats)
			}
		}
	}
}

// onNetwork runs s on internal/network through scenario.Run, with a
// NodeTraffic offered as the matrix of its draws, and renders it as
// TestRunEngineDoesNotShow compares it, after holding the run to what the
// spec is there to exercise: a full buffer, a ring that overflows only
// below 1<<15 events, and one tracked sample a second.
func onNetwork(t *testing.T, name string, s Spec) string {
	t.Helper()
	g := s.Topology.g
	sc := scenario.NewScenario("run", sim.FromSeconds(s.Seconds))
	if s.Script != "" {
		var err error
		if sc, err = scenario.Parse(strings.NewReader(s.Script)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	cfg := scenario.Config{Graph: g, Metric: s.Metric, Seed: s.Seed, Warmup: sim.FromSeconds(s.WarmupSeconds),
		Multipath: s.Multipath, Ablations: s.Ablations, Trace: trace.NewRing(s.TraceCapacity)}
	if nt := s.NodeTraffic; nt != nil {
		cfg.Matrix = shard.Config{Graph: g, Seed: s.Seed, PktRate: nt.Rate, Dests: nt.Dests, DestRadius: nt.Radius}.Matrix()
	} else {
		cfg.Matrix = s.Traffic.m
	}
	var tracked []Tracked
	for _, p := range s.Track {
		a, _ := g.Lookup(p[0])
		b, _ := g.Lookup(p[1])
		l, _ := g.FindTrunk(a, b)
		ls := node.LinkSeries{Link: l, Util: stats.NewSeries(p[0] + "->" + p[1]), Cost: stats.NewSeries("cost " + p[0] + "->" + p[1])}
		cfg.Track = append(cfg.Track, ls)
		tracked = append(tracked, Tracked{Utilization: ls.Util, Cost: ls.Cost})
	}
	res, err := scenario.Run(cfg, sc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if c := res.Report.Conservation; c.BufferDrops == 0 {
		t.Errorf("%s: ledger %+v: the load should overflow a buffer", name, c)
	}
	if o := cfg.Trace.Overwritten(); (o > 0) != (s.TraceCapacity < 1<<15) {
		t.Errorf("%s: %d events overwritten in a ring of %d", name, o, s.TraceCapacity)
	}
	if n, want := len(tracked[0].Cost.Y), int(sc.Duration.Seconds()); n != want {
		t.Errorf("%s: %d cost samples over %d s", name, n, want)
	}
	return render(res, cfg.Trace, tracked)
}

// render is what a run shows: its Report, its checkpoints, its trace and
// its tracked series.
func render(r scenario.Result, ring *Trace, tracked []Tracked) string {
	out := fmt.Sprintf("%s%+v\n%d overwritten\n%s", r.Report, r.Checkpoints, ring.Overwritten(), ring.Dump())
	for _, tr := range tracked {
		out += fmt.Sprintf("%v\n%v\n%v\n%v\n", tr.Utilization.X, tr.Utilization.Y, tr.Cost.X, tr.Cost.Y)
	}
	return out
}

// Shards 0 is one shard: the same Result and the same Stats — events,
// barrier windows, kernel counters — for one Table 1 leg and for per-node
// traffic under a script.
func TestShardsZeroIsOneShard(t *testing.T) {
	t.Parallel()
	arpa := Arpanet1987()
	topo, err := ParseTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, rest, _ := strings.Cut(topo.Trunks()[0], "-")
	b, _, _ := strings.Cut(rest, " ")
	for _, spec := range []Spec{
		{Topology: arpa, Traffic: arpa.GravityTraffic(ArpanetWeights(), 280_000), Metric: DSPF, Seed: 1987, WarmupSeconds: 100, Seconds: 200},
		{Topology: topo, NodeTraffic: &NodeTraffic{Rate: 12, Dests: 4}, Metric: HNSPF, Seed: 1,
			Script: "duration 120\ncheck-every 30\nat 30 down " + a + " " + b + "\nat 60 up " + a + " " + b + "\n"},
	} {
		var res [2]Result
		for shards := range res {
			spec.Shards = shards
			if res[shards], err = Run(spec); err != nil {
				t.Fatal(err)
			}
		}
		zero, one := res[0], res[1]
		if !reflect.DeepEqual(zero.Result, one.Result) || zero.Stats != one.Stats {
			t.Errorf("%v: Shards 0 ran\n%+v\n%+v\nShards 1\n%+v\n%+v", spec.Metric, zero.Result, zero.Stats, one.Result, one.Stats)
		}
		if s := zero.Stats; s.Events == 0 || s.Barrier.Windows == 0 || s.Kernel.Fired != s.Events {
			t.Errorf("%v: Shards 0 counted %+v", spec.Metric, s)
		}
	}
}

// A topology spec is outside input: one the generators would panic on must
// come back as an error that names it, and an accepted one as a topology a
// simulator can boot from — Validate-clean, every link at the line number
// it reports.
func TestParseTopology(t *testing.T) {
	for _, spec := range []string{"hier:2x2", "hier:1x9", "hier:3", "hier:ax4", "hier:4xb", "waxman:1", "waxman:x", "ring:5", "hier", "",
		// Sizes nothing could run are refused before a node is built; a hub with
		// more lines than a 16-bit line number names is the generator's refusal.
		"hier:99999x99999", "hier:1024x1025", "waxman:100000000", "waxman:16385", "hier:3x70000",
	} {
		topo, err := ParseTopology(spec, 1)
		if err == nil || topo != nil || !strings.Contains(err.Error(), strconv.Quote(spec)) {
			t.Errorf("ParseTopology(%q) = %v, %v; want an error naming the spec", spec, topo, err)
		}
	}
	for spec, nodes := range map[string]int{"hier:8x8": 64, "waxman:64": 64, "arpanet": 30, "milnet": 26} {
		topo, err := ParseTopology(spec, 1)
		if err != nil || topo.NumNodes() != nodes {
			t.Errorf("ParseTopology(%q): %v, want %d nodes", spec, err, nodes)
			continue
		}
		g := topo.g
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		for _, l := range g.Links() {
			if o, in := g.OutLine(l.ID), g.InLine(l.ID); o >= g.Degree(l.From) || in >= g.Degree(l.To) {
				t.Errorf("%s: link %d is line %d of %d out of node %d, line %d of %d into node %d",
					spec, l.ID, o, g.Degree(l.From), l.From, in, g.Degree(l.To), l.To)
			}
		}
	}
}

// Under min-hop routing with no fault every packet takes a shortest path, so
// the actual and minimum paths are equal, exactly, on both engines — also
// when the load overflows buffers and the drops fall on the longer paths:
// the minimum is taken over the delivered packets, as the actual path is.
func TestPathRatioMinHopIsOne(t *testing.T) {
	t.Parallel()
	arpa := Arpanet1987()
	hier, err := ParseTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Spec{
		{Topology: arpa, Traffic: arpa.GravityTraffic(ArpanetWeights(), 600_000), WarmupSeconds: 20, Seconds: 120},
		{Topology: hier, NodeTraffic: &NodeTraffic{Rate: 20, Dests: 4}, Seconds: 60},
		{Topology: hier, NodeTraffic: &NodeTraffic{Rate: 20, Dests: 4}, Seconds: 60, Shards: 2},
	} {
		s.Metric, s.Seed = MinHop, 1
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Report
		if r.BufferDrops == 0 || r.ActualPathHops != r.MinPathHops || r.PathRatio != 1 {
			t.Errorf("%d nodes, Shards %d: %d buffer drops, actual path %v, minimum %v, ratio %v; want drops and a ratio of exactly 1",
				s.Topology.NumNodes(), s.Shards, r.BufferDrops, r.ActualPathHops, r.MinPathHops, r.PathRatio)
		}
	}
}
