package scenario

// Hybrid fluid/packet engine coverage: the background script directives,
// their schedule-time validation, a full hybrid scenario run under faults,
// and the acceptance criterion that a configured-but-zero background
// reproduces the committed golden traces byte-for-byte.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func TestParseBackgroundSurge(t *testing.T) {
	sc, err := Parse(strings.NewReader(`
name hybrid
duration 100
at 10 surge background 2.5
at 20 surge 1.5
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(sc.Events))
	}
	if sc.Events[0].Kind != BackgroundSurge || sc.Events[0].Factor != 2.5 {
		t.Errorf("event 0 = %+v, want BackgroundSurge 2.5", sc.Events[0])
	}
	if sc.Events[1].Kind != Surge || sc.Events[1].Factor != 1.5 {
		t.Errorf("event 1 = %+v, want Surge 1.5", sc.Events[1])
	}
	for _, bad := range []string{
		"at 10 surge background",     // missing factor
		"at 10 surge background 0",   // non-positive
		"at 10 surge background -2",  // negative
		"at 10 surge background x",   // not a number
		"at 10 surge background 1 2", // trailing junk
		"at 10 surge foreground 1.5", // unknown variant
	} {
		_, err := Parse(strings.NewReader("duration 100\n" + bad + "\n"))
		if err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

func TestScriptRoundTripBackground(t *testing.T) {
	sc := NewScenario("hybrid-rt", 200*sim.Second)
	sc.BackgroundSurgeAt(30*sim.Second, 1.75)
	sc.SurgeAt(40*sim.Second, 2)
	text, err := sc.Script()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rendered script does not re-parse: %v\n%s", err, text)
	}
	if len(back.Events) != 2 || back.Events[0].Kind != BackgroundSurge ||
		back.Events[0].Factor != 1.75 || back.Events[0].At != 30*sim.Second {
		t.Errorf("round trip lost the background surge: %+v", back.Events)
	}
}

func TestBackgroundEventsRequireMatrix(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	sc := NewScenario("needs-bg", 60*sim.Second)
	sc.BackgroundSurgeAt(10*sim.Second, 2)
	cfg := Config{Graph: g, Matrix: traffic.Uniform(g, 20_000), Metric: node.HNSPF, Seed: 1}
	if _, err := Run(cfg, sc); err == nil ||
		!strings.Contains(err.Error(), "requires a background matrix") {
		t.Errorf("want a setup error naming the missing background matrix, got %v", err)
	}
}

// A hybrid scenario under faults: background surge and a trunk outage with
// live fluid, audited at every checkpoint. The invariants must hold — the
// fluid layer never touches the packet ledger.
func TestHybridScenarioRun(t *testing.T) {
	g := topology.Arpanet()
	fg := traffic.Gravity(g, topology.ArpanetWeights(), 100_000)
	bg := traffic.Gravity(g, topology.ArpanetWeights(), 800_000)
	l := g.Link(g.Out(0)[0])
	a, b := g.Node(l.From).Name, g.Node(l.To).Name
	sc := NewScenario("hybrid-faults", 150*sim.Second)
	sc.CheckEvery = 25 * sim.Second
	sc.BackgroundSurgeAt(30*sim.Second, 1.5)
	sc.DownAt(50*sim.Second, a, b)
	sc.UpAt(90*sim.Second, a, b)
	res, err := Run(Config{
		Graph: g, Matrix: fg, Metric: node.HNSPF, Seed: 11,
		Warmup: 20 * sim.Second, Background: bg,
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("hybrid run violated invariants: %+v", res.Violations)
	}
	if res.Report.DeliveredRatio < 0.9 {
		t.Errorf("foreground delivery %.3f under hybrid background", res.Report.DeliveredRatio)
	}
	// The fluid background must be visible in the utilization books.
	if res.Report.MeanLinkUtilization < 0.1 {
		t.Errorf("mean utilization %.3f does not reflect the 8x background",
			res.Report.MeanLinkUtilization)
	}
}

// Acceptance criterion: with the hybrid machinery configured but zero
// background demand, the full observable output — report, checkpoints,
// event trace — is byte-identical to the committed golden trace, which
// TestGoldenTrace renders on the shard engine. The fluid epochs run (the code path is live); they
// just must not perturb a single packet, sample or RNG draw.
func TestZeroBackgroundMatchesGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ring := trace.NewRing(1 << 17)
			c := tc.cfg
			cfg := Config{Graph: c.Graph, Matrix: c.Traffic, Metric: c.Metric, Seed: c.Seed, Warmup: tc.warmup, Multipath: c.Multipath,
				Trace: ring, Background: traffic.NewMatrix(c.Graph.NumNodes())} // all-zero demand
			res, err := Run(cfg, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(res, ring)
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("zero-background hybrid run diverged from the golden:\n%s",
					firstDiff(want, got))
			}
		})
	}
}
