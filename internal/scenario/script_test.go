package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseFullScript(t *testing.T) {
	script := `
# A §5.4-style exercise.
name cross-country-flap
duration 600
check-every 30

at 200 down UTAH COLLINS    # trailing comments too
at 400 up UTAH COLLINS
at 100 flap SRI WISC period 4 cycles 3
at 150 restart LBL for 30
at 250 surge 1.5
at 300 checkpoint
`
	sc, err := Parse(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "cross-country-flap" {
		t.Errorf("name = %q", sc.Name)
	}
	if sc.Duration != 600*sim.Second || sc.CheckEvery != 30*sim.Second {
		t.Errorf("duration %v / check-every %v", sc.Duration, sc.CheckEvery)
	}
	// down + up + 3 flap cycles (2 events each) + restart (2) + surge + checkpoint
	if got := len(sc.Events); got != 12 {
		t.Fatalf("parsed %d events, want 12", got)
	}
	want := []struct {
		at   sim.Time
		kind Kind
	}{
		{200 * sim.Second, TrunkDown},
		{400 * sim.Second, TrunkUp},
		{100 * sim.Second, TrunkDown},
		{102 * sim.Second, TrunkUp},
		{104 * sim.Second, TrunkDown},
		{106 * sim.Second, TrunkUp},
		{108 * sim.Second, TrunkDown},
		{110 * sim.Second, TrunkUp},
		{150 * sim.Second, NodeDown},
		{180 * sim.Second, NodeUp},
		{250 * sim.Second, Surge},
		{300 * sim.Second, Checkpoint},
	}
	for i, w := range want {
		if sc.Events[i].At != w.at || sc.Events[i].Kind != w.kind {
			t.Errorf("event %d: %v %v, want %v %v", i, sc.Events[i].At, sc.Events[i].Kind, w.at, w.kind)
		}
	}
	if sc.Events[8].Node != "LBL" {
		t.Errorf("restart target %q, want LBL", sc.Events[8].Node)
	}
	if sc.Events[10].Factor != 1.5 {
		t.Errorf("surge factor %v, want 1.5", sc.Events[10].Factor)
	}
}

func TestParseFractionalTimes(t *testing.T) {
	sc, err := Parse(strings.NewReader("duration 10.5\nat 0.25 checkpoint\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Duration != 10500*sim.Millisecond {
		t.Errorf("duration %v", sc.Duration)
	}
	if sc.Events[0].At != 250*sim.Millisecond {
		t.Errorf("checkpoint at %v", sc.Events[0].At)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, script, want string
	}{
		{"no duration", "name x\n", "no 'duration'"},
		{"bad directive", "duration 10\nfrobnicate\n", "line 2"},
		{"bad time", "duration 10\nat abc down A B\n", "bad time"},
		{"event past end", "duration 10\nat 20 down A B\n", "outside"},
		{"negative surge", "duration 10\nat 1 surge -2\n", "surge"},
		{"flap grammar", "duration 10\nat 1 flap A B 4 3\n", "flap"},
		{"restart grammar", "duration 10\nat 1 restart A 5\n", "restart"},
		{"checkpoint args", "duration 10\nat 1 checkpoint now\n", "checkpoint"},
		{"down arity", "duration 10\nat 1 down A\n", "down"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(strings.NewReader(tc.script))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want mention of %q", err, tc.want)
			}
			// A caller that dropped the error holds nothing it could run instead.
			if sc != nil {
				t.Errorf("a failed Parse returned a scenario: %+v", sc)
			}
			if _, _, err := RunSharded(ringCfg(0, 7), ringWarmup, sc, nil); err == nil || !strings.Contains(err.Error(), "nil scenario") {
				t.Errorf("Run of a failed Parse's result: %v, want the nil scenario refused", err)
			}
		})
	}
}

func TestParsedScriptRuns(t *testing.T) {
	// End-to-end: a script parsed from text drives a real run with named
	// nodes resolved against the ring graph (N0..N4).
	cfg := ringCfg(0, 7)
	a := cfg.Graph.Node(0).Name
	b := cfg.Graph.Node(1).Name
	script := "name parsed\nduration 150\ncheck-every 50\nat 40 down " + a + " " + b +
		"\nat 80 up " + a + " " + b + "\n"
	sc, err := Parse(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := RunSharded(cfg, ringWarmup, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %+v", res.Violations)
	}
	if res.Report.OfferedPackets == 0 {
		t.Error("degenerate run")
	}
}
