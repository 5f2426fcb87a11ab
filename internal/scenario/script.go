package scenario

// The script format is line-oriented, one directive per line, with '#'
// comments and blank lines ignored. Times and durations are simulated
// seconds (decimals allowed). Node names are resolved against the graph
// when the scenario runs.
//
//	name cross-country-flap          # scenario name
//	duration 600                     # total simulated time (required)
//	check-every 30                   # periodic invariant checkpoints
//	at 200 down UTAH COLLINS         # fail the UTAH—COLLINS trunk
//	at 400 up UTAH COLLINS           # repair it
//	at 100 flap SRI WISC period 4 cycles 3   # 3 down/up cycles, 4 s period
//	at 150 restart LBL for 30        # every trunk at LBL down for 30 s
//	at 250 surge 1.5                 # multiply every source rate by 1.5
//	at 260 surge background 2        # double the fluid background demand
//	at 300 checkpoint                # extra audit instant
//
// Matrix switches (foreground and background) carry a whole traffic matrix
// and have no script syntax; use Scenario.SwitchMatrixAt /
// SwitchBackgroundMatrixAt from code. 'surge background' requires the run
// to configure a background matrix (the hybrid fluid/packet mode).

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Parse reads a scenario script. Errors are line-anchored: every error a
// specific line caused carries its 1-based line number; only the
// whole-script "no 'duration' directive" error has no line to point at.
func Parse(r io.Reader) (*Scenario, error) {
	sc := &Scenario{Name: "scenario"}
	scan := bufio.NewScanner(r)
	lineNo := 0
	var evLines []int // 1-based source line of each appended event
	for scan.Scan() {
		lineNo++
		line := scan.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseLine(sc, fields); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		for len(evLines) < len(sc.Events) {
			evLines = append(evLines, lineNo)
		}
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("script has no 'duration' directive")
	}
	// Range-check events here rather than via Validate so the error can name
	// the line that scheduled the offending event (flap/restart lines expand
	// to several events; they anchor to the expanding line).
	for i, ev := range sc.Events {
		if ev.At < 0 || ev.At > sc.Duration {
			return nil, fmt.Errorf("line %d: %s event at %v outside [0, %v]",
				evLines[i], ev.Kind, ev.At, sc.Duration)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func parseLine(sc *Scenario, fields []string) error {
	switch fields[0] {
	case "name":
		if len(fields) != 2 {
			return fmt.Errorf("want 'name NAME', got %q", strings.Join(fields, " "))
		}
		sc.Name = fields[1]
		return nil
	case "duration":
		d, err := parseSeconds(fields, 1, "duration")
		if err != nil {
			return err
		}
		sc.Duration = d
		return nil
	case "check-every":
		d, err := parseSeconds(fields, 1, "check-every")
		if err != nil {
			return err
		}
		sc.CheckEvery = d
		return nil
	case "at":
		if len(fields) < 3 {
			return fmt.Errorf("want 'at TIME ACTION ...', got %q", strings.Join(fields, " "))
		}
		at, err := seconds(fields[1])
		if err != nil {
			return fmt.Errorf("bad time %q: %w", fields[1], err)
		}
		return parseAction(sc, at, fields[2], fields[3:])
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func parseAction(sc *Scenario, at sim.Time, action string, args []string) error {
	switch action {
	case "down", "up":
		if len(args) != 2 {
			return fmt.Errorf("want '%s NODE NODE', got %d args", action, len(args))
		}
		if action == "down" {
			sc.DownAt(at, args[0], args[1])
		} else {
			sc.UpAt(at, args[0], args[1])
		}
		return nil
	case "flap":
		// flap A B period P cycles C
		if len(args) != 6 || args[2] != "period" || args[4] != "cycles" {
			return fmt.Errorf("want 'flap NODE NODE period SECONDS cycles N'")
		}
		period, err := seconds(args[3])
		if err != nil || period <= 0 {
			return fmt.Errorf("bad flap period %q", args[3])
		}
		cycles, err := strconv.Atoi(args[5])
		// The cycle cap keeps at + cycles×period safely inside sim.Time even
		// at the maximum script time.
		if err != nil || cycles < 1 || cycles > 10000 {
			return fmt.Errorf("bad flap cycle count %q", args[5])
		}
		sc.FlapAt(at, args[0], args[1], period, cycles)
		return nil
	case "restart":
		// restart NODE for D
		if len(args) != 3 || args[1] != "for" {
			return fmt.Errorf("want 'restart NODE for SECONDS'")
		}
		d, err := seconds(args[2])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad restart duration %q", args[2])
		}
		sc.RestartAt(at, args[0], d)
		return nil
	case "surge":
		// surge FACTOR | surge background FACTOR
		background := len(args) == 2 && args[0] == "background"
		if background {
			args = args[1:]
		}
		if len(args) != 1 {
			return fmt.Errorf("want 'surge FACTOR' or 'surge background FACTOR'")
		}
		f, err := strconv.ParseFloat(args[0], 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return fmt.Errorf("bad surge factor %q", args[0])
		}
		if background {
			sc.BackgroundSurgeAt(at, f)
		} else {
			sc.SurgeAt(at, f)
		}
		return nil
	case "checkpoint":
		if len(args) != 0 {
			return fmt.Errorf("'checkpoint' takes no arguments")
		}
		sc.CheckpointAt(at)
		return nil
	default:
		return fmt.Errorf("unknown action %q", action)
	}
}

func parseSeconds(fields []string, arg int, directive string) (sim.Time, error) {
	if len(fields) != arg+1 {
		return 0, fmt.Errorf("want '%s SECONDS', got %q", directive, strings.Join(fields, " "))
	}
	d, err := seconds(fields[arg])
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad %s %q", directive, fields[arg])
	}
	return d, nil
}

// maxScriptSeconds bounds every script time: ~3 simulated years. Large
// enough for any scenario, small enough that no arithmetic the parser's
// callers do on event times (flap expansion, restart ends) can overflow
// sim.Time's microsecond int64.
const maxScriptSeconds = 1e8

func seconds(s string) (sim.Time, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || v < 0 {
		return 0, fmt.Errorf("negative or NaN time %q", s)
	}
	if v > maxScriptSeconds {
		return 0, fmt.Errorf("time %q exceeds %g seconds", s, float64(maxScriptSeconds))
	}
	return sim.FromSeconds(v), nil
}
