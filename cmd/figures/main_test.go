package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// A figure that does not exist, a flag that does not parse or holds what no
// figure can run, and a stray argument exit 2 with the reason on stderr's
// first line and nothing on stdout.
func TestBadInvocationExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "6"}, `figures: unknown figure "6"`},
		{[]string{"-fig", ""}, `figures: unknown figure ""`},
		{[]string{"-figure", "8"}, "flag provided but not defined: -figure"},
		{[]string{"-days", "many"}, `invalid value "many" for flag -days`},
		{[]string{"-fig", "1", "-seconds", "0"}, "figures: -seconds 0 is not a positive time"},
		{[]string{"-seconds", "NaN"}, "figures: -seconds NaN is not a positive time"},
		{[]string{"-fig", "1", "-seconds", "+Inf"}, "figures: -seconds +Inf is not a positive time"},
		{[]string{"-fig", "1", "-seconds", "1e300"}, "figures: -seconds 1e+300 is not a positive time"},
		{[]string{"-fig", "13", "-days", "0"}, "figures: -days 0 is below 1"},
		{[]string{"-fig", "13", "-days", "-3"}, "figures: -days -3 is below 1"},
		{[]string{"-fig", "8", "stray"}, `figures: unexpected argument "stray"`},
		{[]string{"-fig", "6", "-seconds", "5"}, `figures: unknown figure "6"`},
		{[]string{"-fig", "13", "-seconds", "5"}, "figures: -seconds has no effect on figure 13 (it is read by figure 1 only)"},
		{[]string{"-fig", "8", "-seconds", "5"}, "figures: -seconds has no effect on figure 8 (it is read by figure 1 only)"},
		{[]string{"-fig", "1", "-days", "2"}, "figures: -days has no effect on figure 1 (it is read by figure 13 only)"},
		{[]string{"-fig", "4", "-days", "2"}, "figures: -days has no effect on figure 4 (it is read by figure 13 only)"},
		{[]string{"-fig", "10", "-seed", "3"}, "figures: -seed has no effect on figure 10 (it is read by figure 1 and figure 13 only)"},
	} {
		code, out, errOut := runCLI(tc.args...)
		first, _, _ := strings.Cut(errOut, "\n")
		if code != 2 || out != "" || !strings.HasPrefix(first, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr starts %q; want exit 2, no output, %q", tc.args, code, out, first, tc.want)
		}
	}
}

// The analytic figures are exactly deterministic: the same bytes on every run
// and at any GOMAXPROCS (the §5 model builds serially, one goroutine).
func TestFigure8TSVIsStable(t *testing.T) {
	var runs []string
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		code, out, errOut := runCLI("-fig", "8", "-tsv")
		runtime.GOMAXPROCS(prev)
		if code != 0 || errOut != "" {
			t.Fatalf("GOMAXPROCS=%d: exit %d, stderr %q", procs, code, errOut)
		}
		runs = append(runs, out)
	}
	if !strings.HasPrefix(runs[0], "Figure 8:") || strings.Count(runs[0], "\n") < 10 {
		t.Fatalf("-fig 8 -tsv printed no series:\n%s", runs[0])
	}
	if runs[0] != runs[1] {
		t.Errorf("-fig 8 -tsv differs between GOMAXPROCS 1 and 8:\n%s\nvs\n%s", runs[0], runs[1])
	}
}
