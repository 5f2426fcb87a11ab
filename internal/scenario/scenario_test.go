package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// ringCfg builds a 5-node ring under uniform load, on one shard — small
// enough to run fast, meshy enough that failures reroute rather than
// partition. Its runs open the measured window at ringWarmup.
func ringCfg(metric node.MetricKind, seed int64) shard.Config {
	g := topology.Ring(5, topology.T56)
	return shard.Config{Graph: g, Shards: 1, Traffic: traffic.Uniform(g, 40000), Adaptive: true, Metric: metric, Seed: seed}
}

const ringWarmup = 20 * sim.Second

// ringNode returns the name of the i-th ring node.
func ringNode(t *testing.T, g *topology.Graph, i int) string {
	t.Helper()
	return g.Node(topology.NodeID(i)).Name
}

func TestRunCleanScenario(t *testing.T) {
	// A quiet run: no faults, periodic checkpoints only. Every audit must
	// pass and the final checkpoint must sit at the scenario's end.
	cfg := ringCfg(node.HNSPF, 1)
	sc := NewScenario("clean", 200*sim.Second)
	sc.CheckEvery = 25 * sim.Second
	_, res, err := RunSharded(cfg, ringWarmup, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean run produced violations: %+v", res.Violations)
	}
	if got := len(res.Checkpoints); got != 8 {
		t.Errorf("got %d checkpoints, want 8 (every 25 s of 200 s)", got)
	}
	last := res.Checkpoints[len(res.Checkpoints)-1]
	if last.At != 200*sim.Second {
		t.Errorf("last checkpoint at %v, want 200s", last.At)
	}
	if last.QuietOrigins == 0 {
		t.Error("convergence audit should check origins on a long-stable topology")
	}
	if res.Report.DeliveredRatio < 0.99 {
		t.Errorf("delivered ratio %.3f at light load", res.Report.DeliveredRatio)
	}
}

func TestRunScenarioAllEventKinds(t *testing.T) {
	// One scenario exercising every event kind under every routing mode;
	// all invariants must hold at every checkpoint.
	for _, metric := range []node.MetricKind{node.HNSPF, node.DSPF, node.MinHop, node.BF1969} {
		t.Run(metric.String(), func(t *testing.T) {
			cfg := ringCfg(metric, 2)
			g := cfg.Graph
			// Enough load that the transmitters are busy when the trunk
			// fails — otherwise the outages destroy nothing.
			cfg.Traffic = traffic.Uniform(g, 120000)
			a, b := ringNode(t, g, 0), ringNode(t, g, 1)
			sc := NewScenario("everything", 400*sim.Second)
			sc.CheckEvery = 40 * sim.Second
			sc.DownAt(50*sim.Second, a, b)
			sc.UpAt(90*sim.Second, a, b)
			sc.FlapAt(120*sim.Second, a, b, 10*sim.Second, 3)
			sc.RestartAt(170*sim.Second, ringNode(t, g, 2), 20*sim.Second)
			sc.SurgeAt(220*sim.Second, 1.5)
			sc.Events = append(sc.Events, Event{At: 260 * sim.Second, Kind: SwitchMatrix, Matrix: traffic.Uniform(g, 25000)})
			sc.CheckpointAt(171 * sim.Second)
			_, res, err := RunSharded(cfg, ringWarmup, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("%s at %v: %s", v.Check, v.At, v.Err)
			}
			if res.Report.OutageDrops == 0 {
				t.Error("five outages under load should destroy at least one packet")
			}
			// The explicit mid-restart checkpoint must be present.
			found := false
			for _, cp := range res.Checkpoints {
				if cp.At == 171*sim.Second {
					found = true
				}
			}
			if !found {
				t.Error("explicit checkpoint at 171 s missing")
			}
		})
	}
}

func TestNodeRestartRestoresOnlyItsTrunks(t *testing.T) {
	// A trunk a separate TrunkDown holds down must stay down across an
	// overlapping node restart at one of its endpoints: the restart fails
	// and restores the node's other trunks only, on the timeline both
	// engines run.
	g := ringCfg(node.HNSPF, 3).Graph
	a, b := ringNode(t, g, 0), ringNode(t, g, 1)
	ab, _ := g.FindTrunk(topology.NodeID(0), topology.NodeID(1))

	sc := NewScenario("overlap", 200*sim.Second)
	sc.DownAt(50*sim.Second, a, b)                // scripted outage...
	sc.RestartAt(60*sim.Second, a, 20*sim.Second) // ...overlapped by a restart at one endpoint
	sc.UpAt(150*sim.Second, a, b)
	acts, err := timeline(g, sc, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range acts {
		got = append(got, fmt.Sprintf("%v %s %d", a.At, a.Kind, g.Link(a.link).Trunk))
	}
	other := g.Link(g.Out(0)[0]).Trunk
	if other == g.Link(ab).Trunk {
		other = g.Link(g.Out(0)[1]).Trunk
	}
	want := []string{
		fmt.Sprintf("50.000000s down %d", g.Link(ab).Trunk),
		fmt.Sprintf("60.000000s down %d", other),
		fmt.Sprintf("80.000000s up %d", other),
		fmt.Sprintf("150.000000s up %d", g.Link(ab).Trunk),
	}
	if !slices.Equal(got, want) {
		t.Errorf("timeline %q, want %q", got, want)
	}
	_, res, err := RunSharded(ringCfg(node.HNSPF, 3), ringWarmup, sc, nil)
	if err != nil || len(res.Violations) > 0 {
		t.Errorf("run: %v, violations %v", err, res.Violations)
	}
}

// TestHorizonCheckpointRecordedOnce: when the CheckEvery tick and the final
// audit meet at the horizon, one checkpoint is recorded there, not two.
func TestHorizonCheckpointRecordedOnce(t *testing.T) {
	cfg := ringCfg(node.MinHop, 4)
	sc := NewScenario("horizon-tick", 100*sim.Second)
	sc.CheckEvery = 50 * sim.Second
	_, res, err := RunSharded(cfg, ringWarmup, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean run reported a violation: %+v", res.Violations)
	}
	count := 0
	for _, cp := range res.Checkpoints {
		if cp.At == 100*sim.Second {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d checkpoints recorded at the final instant, want 1", count)
	}
}

// TestSameInstantEventsApplyInFileOrder: a down and an up of one trunk at
// one instant leave the trunk as the later line of the script says, in
// either order. The trunk is already down from 10 s, so the up line changes
// its state wherever it falls.
func TestSameInstantEventsApplyInFileOrder(t *testing.T) {
	for _, c := range []struct {
		lines    string
		wantDown bool
	}{
		{"at 20 down N0 N1\nat 20 up N0 N1\n", false},
		{"at 20 up N0 N1\nat 20 down N0 N1\n", true},
	} {
		sc, err := Parse(strings.NewReader("duration 30\nat 10 down N0 N1\n" + c.lines))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ringCfg(node.MinHop, 6)
		s, _, err := RunSharded(cfg, ringWarmup, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The last link-up or link-down a direction logged is its state.
		down := map[topology.LinkID]bool{}
		for _, e := range s.Events() {
			if e.Kind == trace.LinkDown || e.Kind == trace.LinkUp {
				down[e.Link] = e.Kind == trace.LinkDown
			}
		}
		for _, ends := range [][2]topology.NodeID{{0, 1}, {1, 0}} {
			l, _ := cfg.Graph.FindTrunk(ends[0], ends[1])
			if down[l] != c.wantDown {
				t.Errorf("%q: link %d->%d down = %v, want %v", c.lines, ends[0], ends[1], !c.wantDown, c.wantDown)
			}
		}
	}
}

func TestRunRejectsBadScenarios(t *testing.T) {
	cfg := ringCfg(node.HNSPF, 5)
	cases := []struct {
		name string
		sc   *Scenario
		want string
	}{
		{"zero duration", NewScenario("x", 0), "duration"},
		{"event past end", NewScenario("x", 10*sim.Second).DownAt(20*sim.Second, "N0", "N1"), "outside"},
		{"unknown node", NewScenario("x", 100*sim.Second).DownAt(sim.Second, "NOPE", "N1"), "unknown node"},
		{"no trunk", NewScenario("x", 100*sim.Second).DownAt(sim.Second,
			cfg.Graph.Node(0).Name, cfg.Graph.Node(2).Name), "no trunk"},
		{"bad surge", NewScenario("x", 100*sim.Second).SurgeAt(sim.Second, -1), "surge"},
		{"countless checkpoints", &Scenario{Name: "x", Duration: 1e8 * sim.Second, CheckEvery: 1}, "audits more than 1048576 times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := RunSharded(cfg, ringWarmup, tc.sc, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestVanishingSurgeFinishes runs a script Validate accepts whose surge
// factor drives every source's mean gap past what sim.Time can hold. The
// gap used to convert to MinInt64, clamp to a zero delay, and spin the run
// in a source storm at t = 10 s forever; saturated, it means "never", and
// each source offers at most the one arrival it had already scheduled
// (ScaleTraffic is effective from each source's next arrival).
func TestVanishingSurgeFinishes(t *testing.T) {
	sc, err := Parse(strings.NewReader("duration 60\ncheck-every 20\nat 10 checkpoint\nat 10 surge 1e-30\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ringCfg(node.HNSPF, 3)
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1) // the runner never blocks on a test that gave up
	go func() {
		_, res, err := RunSharded(cfg, 0, sc, nil) // no warm-up: count every offered packet
		done <- outcome{res, err}
	}()
	var res Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		res = o.res
	case <-time.After(30 * time.Second): // the run takes milliseconds
		t.Fatal("surge 1e-30 never finished: zero-delay source storm")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %+v", res.Violations)
	}
	first, last := res.Checkpoints[0], res.Checkpoints[len(res.Checkpoints)-1]
	if first.At != 10*sim.Second || last.At != 60*sim.Second {
		t.Fatalf("checkpoints span %v..%v, want 10s..60s", first.At, last.At)
	}
	before, after := first.Conservation.Offered, last.Conservation.Offered-first.Conservation.Offered
	if before == 0 {
		t.Fatal("nothing offered before the surge")
	}
	if sources := int64(cfg.Graph.NumNodes()); after > sources {
		t.Fatalf("%d packets offered after the surge by %d sources, want at most one each", after, sources)
	}
	if last.Conservation.InFlight != 0 {
		t.Fatalf("%d packets in flight 50 s after the sources went quiet", last.Conservation.InFlight)
	}
}
