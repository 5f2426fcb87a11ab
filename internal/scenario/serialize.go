package scenario

// Script rendering: the inverse of Parse. A scenario that came out of Parse
// round-trips exactly — Parse(s.Script()) yields the same Name, Duration,
// CheckEvery and Events (the fuzz target in fuzz_test.go pins this) — which
// is what lets the correctness harness in internal/check emit any failing
// generated scenario as a committable .scn reproducer.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Script renders the scenario in the line-oriented format understood by
// Parse, preserving event order. It fails on scenarios the format cannot
// express: SwitchMatrix events (which carry a whole traffic matrix and have
// no script syntax), unpaired NodeDown/NodeUp events (the script only has
// the combined 'restart NODE for SECONDS' form), and names containing
// whitespace or '#'.
func (s *Scenario) Script() (string, error) {
	if s.Name == "" || strings.ContainsAny(s.Name, " \t\n\r#") {
		return "", fmt.Errorf("scenario name %q is not expressible in a script", s.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "name %s\n", s.Name)
	fmt.Fprintf(&b, "duration %s\n", formatTime(s.Duration))
	if s.CheckEvery > 0 {
		fmt.Fprintf(&b, "check-every %s\n", formatTime(s.CheckEvery))
	}
	// NodeDown events must pair with a later NodeUp on the same node to form
	// a 'restart' line; consumed NodeUps are skipped when reached.
	consumed := make([]bool, len(s.Events))
	for i, ev := range s.Events {
		if consumed[i] {
			continue
		}
		switch ev.Kind {
		case TrunkDown, TrunkUp:
			fmt.Fprintf(&b, "at %s %s %s %s\n", formatTime(ev.At), ev.Kind, ev.A, ev.B)
		case Surge:
			fmt.Fprintf(&b, "at %s surge %s\n", formatTime(ev.At),
				strconv.FormatFloat(ev.Factor, 'f', -1, 64))
		case BackgroundSurge:
			fmt.Fprintf(&b, "at %s surge background %s\n", formatTime(ev.At),
				strconv.FormatFloat(ev.Factor, 'f', -1, 64))
		case Checkpoint:
			fmt.Fprintf(&b, "at %s checkpoint\n", formatTime(ev.At))
		case NodeDown:
			j := -1
			for k := i + 1; k < len(s.Events); k++ {
				e := s.Events[k]
				if !consumed[k] && e.Kind == NodeUp && e.Node == ev.Node && e.At > ev.At {
					j = k
					break
				}
			}
			if j < 0 {
				return "", fmt.Errorf("node-down %q at %v has no matching node-up", ev.Node, ev.At)
			}
			consumed[j] = true
			fmt.Fprintf(&b, "at %s restart %s for %s\n",
				formatTime(ev.At), ev.Node, formatTime(s.Events[j].At-ev.At))
		case NodeUp:
			return "", fmt.Errorf("node-up %q at %v has no preceding node-down", ev.Node, ev.At)
		case SwitchMatrix:
			return "", fmt.Errorf("%s event at %v has no script syntax", ev.Kind, ev.At)
		default:
			return "", fmt.Errorf("unknown event kind %v", ev.Kind)
		}
	}
	return b.String(), nil
}

// formatTime renders a sim.Time as the shortest decimal-seconds string that
// parses back to the same Time: FormatFloat(-1) round-trips the float64
// exactly, and FromSeconds' microsecond rounding absorbs the division error
// for any realistic scenario length.
func formatTime(t sim.Time) string {
	return strconv.FormatFloat(t.Seconds(), 'f', -1, 64)
}
