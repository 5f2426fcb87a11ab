package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestScriptRoundTrip(t *testing.T) {
	src := `name torture
duration 600.25
check-every 30
at 10 down A B
at 20.5 up A B
at 100 flap C D period 4 cycles 3
at 150 restart LBL for 30
at 250 surge 1.5
at 300 checkpoint
`
	sc, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Script()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("re-parse of rendered script failed: %v\nscript:\n%s", err, out)
	}
	if !reflect.DeepEqual(sc, sc2) {
		t.Errorf("round trip changed the scenario:\nbefore %+v\nafter  %+v\nscript:\n%s", sc, sc2, out)
	}
}

func TestScriptOverlappingRestarts(t *testing.T) {
	sc := NewScenario("overlap", 100*sim.Second).
		RestartAt(10*sim.Second, "A", 40*sim.Second).
		RestartAt(20*sim.Second, "A", 10*sim.Second)
	out, err := sc.Script()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Events, sc2.Events) {
		t.Errorf("overlapping restarts did not round trip:\n%+v\nvs\n%+v", sc.Events, sc2.Events)
	}
}

func TestScriptInexpressible(t *testing.T) {
	m := traffic.NewMatrix(2)
	withMatrix := NewScenario("m", 10*sim.Second)
	withMatrix.Events = append(withMatrix.Events, Event{At: 5 * sim.Second, Kind: SwitchMatrix, Matrix: m})
	if _, err := withMatrix.Script(); err == nil {
		t.Error("Script accepted a matrix event")
	}
	badName := NewScenario("two words", 10*sim.Second)
	if _, err := badName.Script(); err == nil {
		t.Error("Script accepted a name with whitespace")
	}
	orphan := &Scenario{Name: "orphan", Duration: 10 * sim.Second,
		Events: []Event{{At: 5 * sim.Second, Kind: NodeUp, Node: "A"}}}
	if _, err := orphan.Script(); err == nil {
		t.Error("Script accepted an unpaired node-up")
	}
}

func TestParseRejectsPathologicalNumbers(t *testing.T) {
	for _, src := range []string{
		"duration NaN\n",
		"duration 1e300\n",
		"name x\nduration 60\nat NaN checkpoint\n",
		"name x\nduration 60\nat 10 surge NaN\n",
		"name x\nduration 60\nat 10 surge +Inf\n",
		"name x\nduration 60\nat 1e9 checkpoint\n",
	} {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse accepted pathological script %q", src)
		}
	}
}

func TestParseErrorsAreLineAnchored(t *testing.T) {
	for _, tc := range []struct{ src, wantLine string }{
		{"name x\nduration 60\nat 70 checkpoint\n", "line 3"},
		{"name x\nduration 60\nat 50 flap A B period 30 cycles 2\n", "line 3"},
		{"name x\nbogus\nduration 60\n", "line 2"},
	} {
		_, err := Parse(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.wantLine) {
			t.Errorf("Parse(%q) error = %v, want mention of %s", tc.src, err, tc.wantLine)
		}
	}
}
