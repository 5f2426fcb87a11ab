// Command hnmtool inspects the revised metric itself: the per-line-type
// parameter tables (§4.2-§4.4), the cost curves, and an interactive-style
// trace of the Figure 3 pipeline against a synthetic utilization schedule.
//
//	hnmtool                # the parameter table for all eight line types
//	hnmtool -curves        # cost-vs-utilization samples per line type
//	hnmtool -trace 0,0.3,0.8,0.95,0.95,0.2,0   # drive one module
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive it directly: 0 after the
// table, curves or trace is written, 2 with one line on stderr for a flag
// that does not parse, a stray argument, a flag the mode never reads (then
// usage: -line without -trace, -curves with it), an unknown line type or a
// bad utilization.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hnmtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		curves = fs.Bool("curves", false, "print cost-vs-utilization samples per line type")
		trace  = fs.String("trace", "", "comma-separated utilizations to drive a 56T module with")
		kind   = fs.String("line", "56T", "line type for -trace (9.6T, 9.6S, 19.2T, 50T, 56T, 56S, 112T, 112S)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lineSet := false
	fs.Visit(func(f *flag.Flag) { lineSet = lineSet || f.Name == "line" })
	refuse := func(why string) int {
		fmt.Fprintln(stderr, "hnmtool: "+why)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() > 0:
		// Flag parsing stops at the first non-flag, so every flag after it
		// would be ignored.
		fmt.Fprintf(stderr, "hnmtool: unexpected argument %q\n", fs.Arg(0))
		return 2
	case lineSet && *trace == "":
		return refuse("-line applies only to -trace")
	case *curves && *trace != "":
		return refuse("-curves has no effect with -trace")
	case *trace != "":
		if err := runTrace(stdout, *kind, *trace); err != nil {
			fmt.Fprintf(stderr, "hnmtool: %v\n", err)
			return 2
		}
	case *curves:
		printCurves(stdout)
	default:
		printTable(stdout)
	}
	return 0
}

var kinds = map[string]topology.LineType{
	"9.6T": topology.T9_6, "9.6S": topology.S9_6, "19.2T": topology.T19_2,
	"50T": topology.T50, "56T": topology.T56, "56S": topology.S56,
	"112T": topology.T112, "112S": topology.S112,
}

func printTable(w io.Writer) {
	fmt.Fprintln(w, "HN-SPF parameter table (routing units; reconstruction of §4.2-§4.4)")
	fmt.Fprintf(w, "%-6s %9s %5s %5s %6s %6s %7s %7s %9s\n",
		"line", "bandwidth", "min", "max", "ramp@", "ramp→", "max-up", "max-dn", "minchange")
	for _, name := range []string{"9.6T", "9.6S", "19.2T", "50T", "56T", "56S", "112T", "112S"} {
		lt := kinds[name]
		p := core.DefaultParams(lt)
		fmt.Fprintf(w, "%-6s %9.0f %5.0f %5.0f %5.0f%% %5.0f%% %7.0f %7.0f %9.0f\n",
			name, lt.Bandwidth(), p.MinCost, p.MaxCost,
			p.RampStart*100, p.RampEnd*100,
			p.MaxIncrease(), p.MaxDecrease(), p.MinChange())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Floors with default propagation delay (satellite lines pay the")
	fmt.Fprintln(w, "slowly-increasing propagation term of §4.2, one unit per 10 ms):")
	for _, name := range []string{"56T", "56S", "9.6T", "9.6S"} {
		lt := kinds[name]
		m := core.NewModule(lt, lt.DefaultPropDelay())
		fmt.Fprintf(w, "  %-6s floor %5.1f  ceiling %5.1f  (%.0f ms propagation)\n",
			name, m.Floor(), m.Ceiling(), lt.DefaultPropDelay()*1000)
	}
}

func printCurves(w io.Writer) {
	fmt.Fprintln(w, "HN-SPF cost (routing units) by utilization")
	names := []string{"9.6T", "9.6S", "56T", "56S", "112T"}
	fmt.Fprintf(w, "%-6s", "util")
	for _, n := range names {
		fmt.Fprintf(w, " %7s", n)
	}
	fmt.Fprintln(w)
	for u := 0.0; u <= 0.951; u += 0.05 {
		fmt.Fprintf(w, "%-6.2f", u)
		for _, n := range names {
			lt := kinds[n]
			m := core.NewModule(lt, lt.DefaultPropDelay())
			fmt.Fprintf(w, " %7.1f", m.RawCost(u))
		}
		fmt.Fprintln(w)
	}
}

// runTrace drives one module through the schedule, which is checked whole
// before the first line is printed.
func runTrace(w io.Writer, kindName, schedule string) error {
	lt, ok := kinds[kindName]
	if !ok {
		return fmt.Errorf("unknown line type %q", kindName)
	}
	var utils []float64
	for _, f := range strings.Split(schedule, ",") {
		u, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(u >= 0 && u < 1) {
			return fmt.Errorf("bad utilization %q (want [0,1))", f)
		}
		utils = append(utils, u)
	}
	m := core.NewModule(lt, lt.DefaultPropDelay())
	s := queueing.ServiceTime(lt.Bandwidth())
	fmt.Fprintf(w, "driving a %s module (floor %.1f, ceiling %.1f) through a utilization schedule\n",
		kindName, m.Floor(), m.Ceiling())
	fmt.Fprintf(w, "%-8s %6s %12s %10s %8s\n", "period", "util", "delay(ms)", "cost", "update")
	for i, u := range utils {
		d := queueing.MM1Delay(s, u)
		cost, rep := m.Update(d)
		fmt.Fprintf(w, "%-8d %6.2f %12.2f %10.1f %8v\n", i+1, u, d*1000, cost, rep)
	}
	return nil
}
