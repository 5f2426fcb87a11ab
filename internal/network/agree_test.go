package network_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// agreeSeconds is how long each random input runs on both engines.
const agreeSeconds = 60

// agreeSeeds are TestEnginesAgree's inputs: between them they draw the
// ARPANET and MILNET maps and three generated ones (a ring, a Waxman and a
// hierarchical graph), every metric at least once and each SPF metric
// under load, HN-SPF with one, two and all five ablations, per-node and
// gravity loads, with and without a warm-up, and multipath forwarding under
// each SPF metric, traced under HN-SPF.
var agreeSeeds = []int64{2, 3, 5, 6, 10, 26, 84, 112, 147}

// TestEnginesAgree holds the two packet engines to each other on random
// inputs (drawAgreement): a one-shard shard.Sim run by scenario.RunSharded
// and a network.Network offered its Matrix, each script step an event that
// fires first at its instant, must render the same Report — Table 1's rows,
// the ledger and the originations — and advertise the same cost on every
// link, at the end of every second's last instant, through a script whose
// first failure flushes a user packet and whose surge lands on an instant a
// source fires; and, where drawn, record the same trace and the same tracked
// series. The network side restarts a node by its own live trunk state, not
// by the timeline scenario expands a restart into.
func TestEnginesAgree(t *testing.T) {
	for _, seed := range agreeSeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { agree(t, seed) })
	}
}

// FuzzEnginesAgree is TestEnginesAgree over any seed; its second seed draws
// HN-SPF with two ablations.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(7))
	f.Add(int64(107))
	f.Fuzz(func(t *testing.T, seed int64) { agree(t, seed) })
}

func agree(t *testing.T, seed int64) {
	in := drawAgreement(t, seed, false)
	t.Log(in.desc)
	n := in.network()
	sc := *in.sc
	sc.CheckEvery = sim.Second
	sec := sim.Time(0)
	compare := func(s *shard.Sim, at sim.Time) {
		n.Run(at)
		if got, want := n.Report().String(), s.Report().String(); got != want {
			t.Fatalf("at %v the reports differ:\nnetwork:\n%s\nshard:\n%s", at, got, want)
		}
		for l := range topology.LinkID(in.cfg.Graph.NumLinks()) {
			if got, want := n.Trunk(l).Cost(), s.LinkCost(l); got != want {
				t.Fatalf("at %v: link %d advertises %v on the network, %v on the shard", at, l, got, want)
			}
		}
	}
	// Each second's checkpoint is taken before every event of its instant.
	s, res, err := scenario.RunSharded(in.cfg, in.warmup, &sc, func(s *shard.Sim) {
		sec += sim.Second
		compare(s, sec-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	compare(s, sc.Duration)
	if len(res.Violations) > 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	if c := res.Report.Conservation; c.OutageDrops == 0 {
		t.Errorf("ledger %+v: the first failure should flush a user packet", c)
	}
	if in.ring != nil {
		ring := trace.NewRing(agreeTrace)
		for _, e := range s.Events() {
			ring.Add(e)
		}
		for k := trace.PacketDropped; k <= trace.Reroute; k++ {
			if got, want := in.ring.Count(k), ring.Count(k); got != want {
				t.Errorf("%d %v events on the network, %d on the shard", got, k, want)
			}
		}
		if got, want := in.ring.Dump(), ring.Dump(); got != want {
			t.Errorf("the traces differ:\nnetwork:\n%s\nshard:\n%s", got, want)
		}
	}
	for i, ls := range in.track {
		for _, s := range [][2]*stats.Series{{ls.Util, in.cfg.Track[i].Util}, {ls.Cost, in.cfg.Track[i].Cost}} {
			if !slices.Equal(s[0].X, s[1].X) || !slices.Equal(s[0].Y, s[1].Y) {
				t.Errorf("link %d's %s series differ:\nnetwork %v %v\nshard   %v %v", ls.Link, s[0].Name, s[0].X, s[0].Y, s[1].X, s[1].Y)
			}
		}
	}
}

// agreeTrace is the capacity of the rings TestEnginesAgree compares.
const agreeTrace = 1 << 16

// agreement is one drawn input: the sharded engine's configuration, the
// warm-up and the script, and the trace ring and tracked series of the
// network that runs it (nil where not drawn).
type agreement struct {
	cfg    shard.Config
	warmup sim.Time
	sc     *scenario.Scenario
	desc   string
	ring   *trace.Ring
	track  []node.LinkSeries
}

// network builds the unsharded engine over in's traffic, with every script
// event scheduled to fire first at its instant, in script order. A node
// restart fails the node's trunks that are up then and restores those it
// failed, read from the network itself.
func (in agreement) network() *network.Network {
	g := in.cfg.Graph
	evs := slices.Clone(in.sc.Events)
	slices.SortStableFunc(evs, func(a, b scenario.Event) int { return cmp.Compare(a.At, b.At) })
	took := map[topology.NodeID][]topology.LinkID{}
	return network.New(network.Config{Graph: g, Matrix: in.cfg.Matrix(), Metric: in.cfg.Metric, Ablations: in.cfg.Ablations,
		Multipath: in.cfg.Multipath, Seed: in.cfg.Seed, Warmup: in.warmup, Trace: in.ring, Track: in.track, Script: func(n *network.Network) {
			for _, ev := range evs {
				_, _ = n.Kernel().ScheduleAt(ev.At, func(sim.Time) {
					id, _ := g.Lookup(ev.Node)
					switch ev.Kind {
					case scenario.TrunkDown, scenario.TrunkUp:
						l, _ := g.FindTrunk(g.MustLookup(ev.A), g.MustLookup(ev.B))
						if ev.Kind == scenario.TrunkDown {
							n.SetTrunkDown(l)
						} else {
							n.SetTrunkUp(l)
						}
					case scenario.NodeDown:
						took[id] = nil
						for _, l := range g.Out(id) {
							if !n.LinkIsDown(l) {
								n.SetTrunkDown(l)
								took[id] = append(took[id], l)
							}
						}
					case scenario.NodeUp:
						for _, l := range took[id] {
							n.SetTrunkUp(l)
						}
					case scenario.Surge:
						n.ScaleTraffic(ev.Factor)
					case scenario.SwitchMatrix:
						n.SetMatrix(ev.Matrix)
					}
				})
			}
		}})
}

// drawAgreement draws one input from seed: the map (the ARPANET map, MILNET
// or check.GenTopology's), the metric — under HN-SPF with any of its five
// ablations — a per-node or a gravity load from
// light to past saturation, a warm-up, and a script. Its first failure
// fires one tick after the first instant from a drawn time on at which a
// user packet is on some trunk's transmitter, found by stepping a probe
// run, so the outage flushes it on both engines; a surge follows at the
// next instant a source fires, found by a probe run with that failure.
// Then come the failure's repair; a failure at one end of a trunk, a
// restart of that node which must leave the trunk down, and its repair;
// matrix switches that silence three sources and revive them; and a few
// other trunks' failures, repairs and flaps, each within one measurement
// period. Last, each with even odds, it traces every PSN's events, tracks
// one link and, under an SPF metric, forwards by multipath. No draw depends
// on a probe's outcome, so a drawn multipath draws the input again with
// multipath on from the start, its probes forwarding as the run will.
func drawAgreement(t *testing.T, seed int64, multipath bool) agreement {
	rng := rand.New(rand.NewSource(seed))
	var topo check.Topo
	var weights map[string]float64
	switch rng.Intn(3) {
	case 0:
		topo, weights = check.Topo{Desc: "arpanet", G: topology.Arpanet()}, topology.ArpanetWeights()
	case 1:
		topo, weights = check.Topo{Desc: "milnet", G: topology.Milnet()}, topology.MilnetWeights()
	default:
		topo = check.GenTopology(rng, 30)
	}
	g := topo.G
	metrics := []node.MetricKind{node.MinHop, node.DSPF, node.HNSPF, node.BF1969}
	in := agreement{cfg: shard.Config{Graph: g, Shards: 1, Seed: seed, Metric: metrics[rng.Intn(len(metrics))], Adaptive: true,
		Multipath: multipath}, sc: scenario.NewScenario("agree", agreeSeconds*sim.Second)}
	var ablated []string
	if in.cfg.Metric == node.HNSPF {
		for i, o := range hnmOptions {
			if rng.Intn(2) == 0 {
				in.cfg.Ablations = append(in.cfg.Ablations, o)
				ablated = append(ablated, hnmOptionNames[i])
			}
		}
	}
	rate, load := 0.5*math.Exp2(6*rng.Float64()), ""
	if rng.Intn(2) == 0 {
		in.cfg.PktRate, in.cfg.Dests = rate, 1+rng.Intn(4)
		load = fmt.Sprintf("%.2f pkt/s to %d destinations a PSN", rate, in.cfg.Dests)
	} else {
		bps := rate * node.ClampedMeanPktBits() * float64(g.NumNodes())
		in.cfg.Traffic = traffic.Gravity(g, weights, bps)
		load = fmt.Sprintf("a %.0f kbps gravity matrix", bps/1000)
	}
	if rng.Intn(3) > 0 {
		in.warmup = within(rng) + within(rng)
	}
	name := func(id topology.NodeID) string { return g.Node(id).Name }
	trunk := func(l topology.LinkID) (string, string) { return name(g.Link(l).From), name(g.Link(l).To) }

	// The first failure: a link a script can name (the first trunk joining
	// its ends) with a user packet on its transmitter.
	probe := in.network()
	probe.Run(sim.FromSeconds(5 + 15*rng.Float64()))
	k := probe.Kernel()
	flushed := topology.NoLink
	for flushed == topology.NoLink {
		for l := range topology.LinkID(g.NumLinks()) {
			ln := g.Link(l)
			if first, _ := g.FindTrunk(ln.From, ln.To); first == l {
				if p := network.Sending(probe.Trunk(l)); p != nil && !p.IsRouting() {
					flushed = l
					break
				}
			}
		}
		if flushed == topology.NoLink && (!k.Step() || k.Now() > 25*sim.Second) {
			t.Fatalf("%s: no user packet was ever on a transmitter", topo.Desc)
		}
	}
	a, b := trunk(flushed)
	in.sc.DownAt(k.Now()+1, a, b)

	// The surge, on an instant a source fires.
	probe = in.network()
	probe.Run(k.Now() + 1)
	k = probe.Kernel()
	for offered := probe.Conservation().Offered; probe.Conservation().Offered == offered; {
		if !k.Step() {
			t.Fatalf("%s: no source fired after the first failure", topo.Desc)
		}
	}
	at := k.Now()
	in.sc.SurgeAt(at, 0.5+rng.Float64())
	in.sc.UpAt(at+within(rng), a, b)

	// A restart at one end of a trunk a separate failure holds down.
	x := topology.NodeID(rng.Intn(g.NumNodes()))
	a, b = trunk(g.Out(x)[rng.Intn(g.Degree(x))])
	down := at + within(rng)/3
	restart, d := down+within(rng)/3, within(rng)/2
	in.sc.DownAt(down, a, b).RestartAt(restart, a, d)
	at = restart + d + within(rng)/3
	in.sc.UpAt(at, a, b)

	// Three sources silenced, then revived.
	full, quiet := in.cfg.Matrix(), in.cfg.Matrix().Clone()
	for range 3 {
		s := topology.NodeID(rng.Intn(g.NumNodes()))
		for d := range topology.NodeID(g.NumNodes()) {
			quiet.Set(s, d, 0)
		}
	}
	at += within(rng) / 2
	in.sc.Events = append(in.sc.Events, scenario.Event{At: at, Kind: scenario.SwitchMatrix, Matrix: quiet},
		scenario.Event{At: at + within(rng)/2, Kind: scenario.SwitchMatrix, Matrix: full})

	for range rng.Intn(3) {
		a, b := trunk(topology.LinkID(2 * rng.Intn(g.NumTrunks())))
		at := in.sc.Events[0].At + sim.FromSeconds(5*rng.Float64())
		for range 1 + rng.Intn(3) { // a failure and its repair, or a flap
			at += within(rng) / 3
			in.sc.DownAt(at, a, b)
			at += within(rng) / 3
			in.sc.UpAt(at, a, b)
		}
	}
	if rng.Intn(2) == 0 {
		in.cfg.MeasureSample, in.cfg.TraceDrops, in.ring = 1, true, trace.NewRing(agreeTrace)
	}
	tracked := "no link"
	if rng.Intn(2) == 0 {
		l := topology.LinkID(rng.Intn(g.NumLinks()))
		for _, track := range []*[]node.LinkSeries{&in.cfg.Track, &in.track} {
			*track = []node.LinkSeries{{Link: l, Util: stats.NewSeries("utilization"), Cost: stats.NewSeries("cost")}}
		}
		tracked = fmt.Sprint("link ", l)
	}
	if in.cfg.Metric != node.BF1969 && rng.Intn(2) == 0 && !multipath {
		return drawAgreement(t, seed, true)
	}
	in.desc = fmt.Sprintf("seed %d: %s, %v ablated %v, %s, warm-up %v, traced %v, tracked %s, multipath %v, script %+v", seed, topo.Desc,
		in.cfg.Metric, ablated, load, in.warmup, in.ring != nil, tracked, multipath, in.sc.Events)
	return in
}

// hnmOptions are the HNM's five ablations, each drawn with even odds under
// HN-SPF; hnmOptionNames name them in a drawn input's description.
var (
	hnmOptions = []core.Option{core.WithoutAveraging(), core.WithoutMovementLimits(), core.WithSymmetricLimits(),
		core.WithoutMinChange(), core.WithMD1Table()}
	hnmOptionNames = []string{"averaging", "movement limits", "asymmetric limits", "minimum change", "M/D/1 table"}
)

// within draws a time within one measurement period, to the microsecond.
func within(rng *rand.Rand) sim.Time {
	return 1 + sim.Time(rng.Int63n(int64(node.MeasurementPeriod)))
}
