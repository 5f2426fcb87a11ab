package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// Each mode prints its table; bad input exits 2 with the reason on stderr's
// first line and nothing on stdout — never half a trace.
func TestModesAndRejections(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string // prefix of stdout (code 0) or of stderr's first line (code 2)
	}{
		{"", 0, "HN-SPF parameter table"},
		{"-curves", 0, "HN-SPF cost (routing units) by utilization"},
		{"-trace 0,0.3,0.95 -line 9.6S", 0, "driving a 9.6S module"},
		{"-trace 0.5 -line 7T", 2, `hnmtool: unknown line type "7T"`},
		{"-trace 0.2,1.0", 2, `hnmtool: bad utilization "1.0" (want [0,1))`},
		{"-trace 0.2,-0.1", 2, `hnmtool: bad utilization "-0.1"`},
		{"-trace 0.2,NaN", 2, `hnmtool: bad utilization "NaN"`},
		{"-trace 0.2,,0.3", 2, `hnmtool: bad utilization ""`},
		{"-curve", 2, "flag provided but not defined: -curve"},
		{"foo", 2, `hnmtool: unexpected argument "foo"`},
		{"-curves foo", 2, `hnmtool: unexpected argument "foo"`},
		{"-line 9.6S", 2, "hnmtool: -line applies only to -trace"},
		{"-curves -line 56S", 2, "hnmtool: -line applies only to -trace"},
		{"-curves -trace 0.5", 2, "hnmtool: -curves has no effect with -trace"},
	} {
		code, out, errOut := runCLI(strings.Fields(tc.args)...)
		got := out
		if tc.code == 2 {
			got, _, _ = strings.Cut(errOut, "\n")
		}
		if code != tc.code || !strings.HasPrefix(got, tc.want) || tc.code == 2 && out != "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit %d and %q", tc.args, code, out, errOut, tc.code, tc.want)
		}
	}
	if _, out, _ := runCLI("-trace", "0,0.3,0.95"); strings.Count(out, "\n") != 5 {
		t.Errorf("a three-period trace printed %d lines, want 2 of header and 3 of periods:\n%s", strings.Count(out, "\n"), out)
	}
}
