package arpanet

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The engine a Spec picks does not show in its Result: the unsharded engine
// (Shards 0) and the sharded one at 1, 2 and 4 shards render the same
// Report, audit the same checkpoints, record the same trace and sample the
// same tracked series, bit for bit, for
//   - Table 1's two legs — D-SPF on the 280 kbps gravity matrix, then HN-SPF
//     at the paper's +13% load — each after the 100 s warm-up, over a
//     measured window shortened to 10 s, the first into a ring the run
//     overflows;
//   - per-node traffic under HN-SPF, under HN-SPF without its averaging and
//     its minimum-change threshold (Spec.Ablations), and under BF-1969 on
//     hier:4x8, with one trunk failed and repaired by a script (offered to
//     Shards 0 as the same draws in a matrix), that trunk tracked;
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
		var want string
		name := spec.Metric.String()
		if len(spec.Ablations) > 0 {
			name += " ablated"
		}
		if spec.Multipath {
			name += " multipath"
		}
		for _, shards := range []int{0, 1, 2, 4} {
			spec.Shards = shards
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s, Shards %d: %v", name, shards, err)
			}
			if len(res.Violations) > 0 {
				t.Errorf("%s, Shards %d: %v", name, shards, res.Violations)
			}
			got := fmt.Sprintf("%s%+v\n%d overwritten\n%s", res.Report, res.Checkpoints, res.Trace.Overwritten(), res.Trace.Dump())
			for _, tr := range res.Tracked {
				got += fmt.Sprintf("%v\n%v\n%v\n%v\n", tr.Utilization.X, tr.Utilization.Y, tr.Cost.X, tr.Cost.Y)
			}
			if shards == 0 {
				want = got
				if c := res.Report.Conservation; c.BufferDrops == 0 {
					t.Errorf("%s: ledger %+v: the load should overflow a buffer", name, c)
				}
				if o := res.Trace.Overwritten(); (o > 0) != (spec.TraceCapacity < 1<<15) {
					t.Errorf("%s: %d events overwritten in a ring of %d", name, o, spec.TraceCapacity)
				}
				if n, want := len(res.Tracked[0].Cost.Y), int(res.Script.Duration.Seconds()); n != want {
					t.Errorf("%s: %d cost samples over %d s", name, n, want)
				}
				continue
			}
			if got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range min(len(g), len(w)) {
					if g[i] != w[i] {
						t.Errorf("%s, Shards %d: line %d is\n%s\nShards 0 rendered\n%s", name, shards, i+1, g[i], w[i])
						break
					}
				}
				t.Errorf("%s, Shards %d rendered %d lines, Shards 0 %d", name, shards, len(g), len(w))
			}
			if res.Stats.Events == 0 || res.Stats.Barrier.Windows == 0 {
				t.Errorf("%s, Shards %d: no engine counters: %+v", name, shards, res.Stats)
			}
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
