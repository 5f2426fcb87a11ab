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

// A figure that does not exist and a flag that does not parse exit 2 with the
// reason on stderr's first line and nothing on stdout.
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
	} {
		code, out, errOut := runCLI(tc.args...)
		first, _, _ := strings.Cut(errOut, "\n")
		if code != 2 || out != "" || !strings.HasPrefix(first, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr starts %q; want exit 2, no output, %q", tc.args, code, out, first, tc.want)
		}
	}
}

// The analytic figures are exactly deterministic: the same bytes on every run
// and at any worker count (the §5 model builds through internal/fanout).
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
