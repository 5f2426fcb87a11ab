package check

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestScriptFailureMinimizesAndRoundTrips plants a predicate that fails
// exactly while one event is present: ddmin must shrink the script to that
// event alone, and the reproducer must be the header, then a .scn that
// parses back to the minimized scenario, then the error line.
func TestScriptFailureMinimizesAndRoundTrips(t *testing.T) {
	sc := script("planted", 90*sim.Second, 10*sim.Second, nil)
	sc.DownAt(40*sim.Second, "A", "B").
		SurgeAt(5*sim.Second, 1.5).
		FlapAt(20*sim.Second, "C", "D", 4*sim.Second, 2).
		CheckpointAt(70*sim.Second).
		UpAt(60*sim.Second, "A", "B")
	culprit := sc.Events[3] // the flap's second outage: "at 24 down C D"
	planted := errors.New("fails while C-D goes down at 24 s")
	runs := 0
	run := func(events []scenario.Event) error {
		runs++
		for _, ev := range events {
			if ev == culprit {
				return planted
			}
		}
		return nil
	}
	const header = "# topo: planted\n# cfgseed: 7\n"
	f := scriptFailure("scenario-audit", 7, "planted", header, sc, planted, run)

	if f.Check != "scenario-audit" || f.Seed != 7 || f.Topo != "planted" || f.Err != planted.Error() {
		t.Errorf("Failure = %+v", f)
	}
	if runs < 3 {
		t.Errorf("predicate ran %d times; ddmin cannot have shrunk 7 events in that", runs)
	}
	body, ok := strings.CutPrefix(f.Repro, header)
	if !ok {
		t.Fatalf("reproducer does not start with the header:\n%s", f.Repro)
	}
	scn, ok := strings.CutSuffix(body, "# error: "+planted.Error()+"\n")
	if !ok {
		t.Fatalf("reproducer does not end with the error line:\n%s", f.Repro)
	}
	// The whole reproducer is a valid script too: its comments are comments.
	for _, text := range []string{scn, f.Repro} {
		got, err := scenario.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("reproducer does not parse: %v\n%s", err, text)
		}
		want := script("planted", 90*sim.Second, 10*sim.Second, []scenario.Event{culprit})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reproducer parses to %+v, want exactly the culprit: %+v", got, want)
		}
	}
}

// A script that stops failing under minimization (a non-deterministic bug)
// still reports the original error, and events come out in time order.
func TestScriptFailureKeepsOriginalErrorAndSortsByTime(t *testing.T) {
	sc := script("flaky", 30*sim.Second, 0, nil)
	sc.UpAt(20*sim.Second, "A", "B").DownAt(10*sim.Second, "A", "B")
	run := func([]scenario.Event) error { return nil } // never fails again
	orig := errors.New("seen once")
	f := scriptFailure("shard-custody", 1, "t", "", sc, orig, run)
	if f.Err != orig.Error() {
		t.Errorf("Err = %q, want the original error", f.Err)
	}
	down, up := strings.Index(f.Repro, "at 10 down A B"), strings.Index(f.Repro, "at 20 up A B")
	if down < 0 || up < 0 || down > up {
		t.Errorf("reproducer events not in time order:\n%s", f.Repro)
	}
}
