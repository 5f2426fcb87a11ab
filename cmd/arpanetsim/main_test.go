package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	arpanet "repro"
	"repro/internal/scenario"
)

// One parser serves every run: each name means the same routing on either
// traffic and under -scenario, and anything else is an error, never a
// silent min-hop.
func TestMetricKinds(t *testing.T) {
	cases := []struct {
		name string
		want []arpanet.Spec // nil: rejected
	}{
		{"hnspf", []arpanet.Spec{{Metric: arpanet.HNSPF}}},
		{"dspf", []arpanet.Spec{{Metric: arpanet.DSPF}}},
		{"minhop", []arpanet.Spec{{Metric: arpanet.MinHop}}},
		{"both", []arpanet.Spec{{Metric: arpanet.DSPF}, {Metric: arpanet.HNSPF}}},
		{"bf1969", []arpanet.Spec{{Metric: arpanet.BF1969}}},
		{"static", []arpanet.Spec{{StaticRoutes: true}}},
		{"", nil},
		{"nonsense", nil},
		{"adaptive", nil},
	}
	for _, tc := range cases {
		got, err := metricKinds(tc.name)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("metricKinds(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// A flag the run never reads is rejected by name before anything runs,
// whatever -shards says; a flag left at its default never counts. Either
// traffic reads -seeds, -json, -warmup, -growth and every -metric alike.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args     string // flags set on the command line
		scenario string
		topology string // "": the default, arpanet
		metric   string
		reject   string // "": accepted; else the flag the error must name
	}{
		// Gravity traffic, the study and a script.
		{args: "", metric: "both"},
		{args: "shards metric traffic growth seconds warmup seed seeds json topology", metric: "both"},
		{args: "metric traffic seconds", metric: "hnspf"},
		{args: "metric traffic seconds seeds json", metric: "static"},
		{args: "shards scenario metric traffic warmup seed seeds json topology", scenario: "flap.scn", metric: "both"},
		{args: "topology traffic", topology: "milnet", metric: "both"},
		// Per-node traffic, which -rate, -dests, -radius or a generated map choose.
		{args: "shards rate dests radius growth seconds warmup seed seeds json", metric: "both"},
		{args: "topology seconds warmup seeds json cpuprofile memprofile", topology: "hier:4x8", metric: "both"},
		{args: "rate metric seconds", metric: "static"},
		{args: "shards rate metric scenario warmup seeds json", scenario: "flap.scn", metric: "bf1969"},
		{args: "topology scenario", scenario: "flap.scn", topology: "waxman:64", metric: "hnspf"},
		// -traffic sizes the gravity matrix only.
		{args: "rate traffic", metric: "both", reject: "-traffic"},
		{args: "topology traffic", topology: "hier:4x8", metric: "both", reject: "-traffic"},
		// The script supplies the duration, and runs every metric at one load.
		{args: "scenario seconds", scenario: "flap.scn", metric: "both", reject: "-seconds"},
		{args: "rate scenario seconds", scenario: "flap.scn", metric: "hnspf", reject: "-seconds"},
		{args: "scenario growth", scenario: "flap.scn", metric: "both", reject: "-growth"},
		// -growth scales the after run of the pair.
		{args: "metric growth", metric: "dspf", reject: "-growth"},
		{args: "metric growth", metric: "static", reject: "-growth"},
		{args: "rate metric growth", metric: "hnspf", reject: "-growth"},
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(tc.args) {
			set[name] = true
		}
		kinds, err := metricKinds(tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		o := &options{set: set, topology: tc.topology}
		if o.topology == "" {
			o.topology = "arpanet"
		}
		err = checkFlags(set, o.perNode(), tc.scenario, kinds)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("flags %q: rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.reject+" ")):
			t.Errorf("flags %q: err = %v, want %s rejected", tc.args, err, tc.reject)
		}
	}
}

// The flags build one Spec a run: a gravity matrix of -traffic kbps on the
// arpanet or milnet map, the milnet default rescaled only when -traffic is
// unset, or per-node traffic at -rate; -growth grows the after run's load,
// and -metric static sets StaticRoutes with Metric unset.
func TestStudySpecs(t *testing.T) {
	growth := 413.99 / 366.26
	for _, tc := range []struct {
		args  string
		loads []float64 // each run's Traffic.TotalBPS, or NodeTraffic.Rate
	}{
		{"", []float64{280_000, 280_000 * growth}},
		{"-metric hnspf -traffic 100", []float64{100_000}},
		{"-topology milnet -metric hnspf", []float64{150_000}},
		{"-topology milnet -metric hnspf -traffic 280", []float64{280_000}},
		{"-topology milnet -metric hnspf -traffic 150", []float64{150_000}},
		{"-rate 2 -growth 1.5", []float64{2, 3}},
		{"-topology hier:2x4 -metric static", []float64{1}},
		{"-rate 2 -metric dspf -scenario flap.scn", []float64{2}},
	} {
		o, fs, err := parse(strings.Fields(tc.args), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		kinds, err := o.check(fs)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		topo, err := arpanet.ParseTopology(o.topology, o.seed)
		if err != nil {
			t.Fatal(err)
		}
		var script []byte
		if o.scenario != "" {
			script = []byte("duration 200\n")
		}
		specs := studySpecs(o, topo, kinds, script)
		var loads []float64
		for i, s := range specs {
			if s.NodeTraffic != nil {
				loads = append(loads, s.NodeTraffic.Rate)
			} else {
				loads = append(loads, s.Traffic.TotalBPS())
			}
			if s.Metric != kinds[i].Metric || s.StaticRoutes != (o.metric == "static") || s.Shards != o.shards || s.Seed != o.seed ||
				s.WarmupSeconds != o.warmup || (script == nil) != (s.Seconds == o.warmup+o.seconds) || s.Script != string(script) {
				t.Errorf("%q: run %d is %+v", tc.args, i, s)
			}
		}
		if len(loads) != len(tc.loads) {
			t.Fatalf("%q: loads %v, want %v", tc.args, loads, tc.loads)
		}
		for i := range loads {
			if math.Abs(loads[i]-tc.loads[i]) > 1e-6*tc.loads[i] {
				t.Errorf("%q: loads %v, want %v", tc.args, loads, tc.loads)
			}
		}
	}
}

// A run whose audit fails prints each violation after the table or report
// it belongs to, in text; -json keeps stdout valid JSON. Either way the
// count comes back for run to exit 1 on.
func TestOutputReportsViolations(t *testing.T) {
	var clean, bad arpanet.Result
	clean.Seed, bad.Seed = 7, 7
	clean.Report.Metric, bad.Report.Metric = "D-SPF", "HN-SPF"
	bad.Violations = []scenario.Violation{{Check: "custody", Err: "packet held twice"}}
	for _, tc := range []struct {
		name    string
		results [][]arpanet.Result
		asJSON  bool
	}{
		{"pair", [][]arpanet.Result{{clean}, {bad}}, false},
		{"single", [][]arpanet.Result{{bad}}, false},
		{"pair -json", [][]arpanet.Result{{clean}, {bad}}, true},
		{"single -json", [][]arpanet.Result{{bad}}, true},
	} {
		var out strings.Builder
		n, err := output(&out, make([]arpanet.Spec, len(tc.results)), tc.results, tc.asJSON)
		if err != nil || n != 1 {
			t.Errorf("%s: %d violations, err %v; want 1", tc.name, n, err)
		}
		line := "\n  VIOLATION seed 7 at 0.000000s [custody]: packet held twice\n"
		if tc.asJSON {
			if !json.Valid([]byte(out.String())) || strings.Contains(out.String(), "VIOLATION") {
				t.Errorf("%s: stdout is not the JSON alone:\n%s", tc.name, out.String())
			}
		} else if !strings.HasSuffix(out.String(), line) {
			t.Errorf("%s: printed\n%s\nwant it to end with %q", tc.name, out.String(), line)
		}
	}
}

// flag.Float64 accepts "NaN" and "Inf"; the simulator's time conversion
// panics on the one and never ends a run on the other, so the command line
// must refuse both by name first.
func TestNaNFlagRejected(t *testing.T) {
	for _, tc := range []struct{ args, reject string }{
		{"-seconds 12 -rate 0.5", ""},
		{"-seconds NaN", "-seconds"},
		{"-seconds 12 -rate nan", "-rate"},
		{"-seconds +Inf", "-seconds"},
	} {
		fs := flag.NewFlagSet("arpanetsim", flag.ContinueOnError)
		fs.Float64("seconds", 600, "")
		fs.Float64("rate", 1, "")
		fs.Int("seeds", 1, "")
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		err := numberFlag(fs)
		if (tc.reject == "") != (err == nil) || err != nil && !strings.HasPrefix(err.Error(), tc.reject+" ") {
			t.Errorf("%q: err = %v, want %q rejected", tc.args, err, tc.reject)
		}
	}
}

// A number below zero means nothing to any mode: -traffic and -growth used to
// panic inside traffic.Gravity and the rest ran something else, so each is
// refused by name — as is -seeds 0 — and zero itself, a negative -seed and
// every default pass.
func TestNegativeFlagRejected(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-traffic -5", "-traffic -5 is negative"},
		{"-growth -1", "-growth -1 is negative"},
		{"-seconds -5", "-seconds -5 is negative"},
		{"-warmup -10", "-warmup -10 is negative"},
		{"-rate -0.5", "-rate -0.5 is negative"},
		{"-shards 2 -radius -3", "-radius -3 is negative"},
		{"-shards -1", "-shards -1 is negative"},
		{"-shards 2 -dests -2", "-dests -2 is negative"},
		{"-seeds -1", "-seeds -1 is negative"},
		{"-seeds 0", "-seeds must be positive"},
		{"-traffic 0 -warmup 0 -seconds 0 -radius 0 -seed -7", ""},
		{"", ""},
	} {
		fs := flag.NewFlagSet("arpanetsim", flag.ContinueOnError)
		for _, name := range []string{"traffic", "growth", "seconds", "warmup", "rate"} {
			fs.Float64(name, 1, "")
		}
		for _, name := range []string{"seeds", "shards", "dests", "radius"} {
			fs.Int(name, 1, "")
		}
		fs.Int64("seed", 1987, "")
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatal(err)
		}
		if err := numberFlag(fs); (err == nil) != (tc.want == "") || err != nil && err.Error() != tc.want {
			t.Errorf("%q: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// mean averages every numeric field of Report, whatever is added to it
// later, in nested structs such as the ledger too: leaf k of the first
// report is set to k and of the second to 3k, so the mean must read 2k
// everywhere but the path ratio, which it recomputes from the mean hop
// counts.
func TestMeanAveragesEveryField(t *testing.T) {
	var a, b arpanet.Report
	va, vb := leaves(reflect.ValueOf(&a).Elem(), ""), leaves(reflect.ValueOf(&b).Elem(), "")
	for i, f := range va {
		k := int64(i + 1)
		switch f.v.Kind() {
		case reflect.Float64:
			f.v.SetFloat(float64(k))
			vb[i].v.SetFloat(float64(3 * k))
		case reflect.Int64:
			f.v.SetInt(k)
			vb[i].v.SetInt(3 * k)
		case reflect.String:
			f.v.SetString("D-SPF")
			vb[i].v.SetString("D-SPF")
		default:
			t.Fatalf("Report.%s is a %v; mean averages float64 and int64 fields", f.name, f.v.Kind())
		}
	}
	rs := make([]arpanet.Result, 2)
	rs[0].Report, rs[1].Report = a, b
	m := mean(rs)
	for i, f := range leaves(reflect.ValueOf(&m).Elem(), "") {
		want := 2 * float64(i+1)
		switch f.name {
		case "PathRatio":
			want = m.ActualPathHops / m.MinPathHops
		case "Metric":
			if m.Metric != "D-SPF" {
				t.Errorf("Metric = %q", m.Metric)
			}
			continue
		}
		var got float64
		if f.v.Kind() == reflect.Int64 {
			got = float64(f.v.Int())
		} else {
			got = f.v.Float()
		}
		if got != want {
			t.Errorf("mean %s = %v, want %v", f.name, got, want)
		}
	}
}

type leaf struct {
	name string
	v    reflect.Value
}

// leaves lists the fields of struct v that are not structs themselves, the
// fields of nested structs in their place, named by their path.
func leaves(v reflect.Value, prefix string) []leaf {
	var out []leaf
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			out = append(out, leaves(f, name+".")...)
		} else {
			out = append(out, leaf{name, f})
		}
	}
	return out
}

// run's exit status: a script that cannot be read or names a PSN the map
// does not have, or a Spec arpanet.RunSeeds refuses, exits 1 with the reason
// on stderr; a committed script runs and exits 0 on either traffic; flags
// the run would ignore exit 2 with usage.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	unknown, empty := filepath.Join(dir, "unknown.scn"), filepath.Join(dir, "empty.scn")
	// Both scripts outlast the default -warmup, which a script must.
	if err := os.WriteFile(unknown, []byte("duration 200\nat 10 down UTAH NOWHERE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fluid := filepath.Join(dir, "fluid.scn")
	if err := os.WriteFile(fluid, []byte("duration 200\nat 10 surge background 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   string
		code   int
		stderr string // a substring of stderr's first line
		stdout string // a substring of stdout
	}{
		{"-scenario " + filepath.Join(dir, "missing.scn"), 1, "missing.scn: no such file", ""},
		{"-scenario " + unknown, 1, `unknown node "NOWHERE"`, ""},
		{"-scenario " + empty, 1, "empty.scn: empty script", ""},
		{"-scenario " + fluid, 1, "surge background at 10.000000s requires a background matrix", ""},
		{"-scenario ../../examples/flapping/utah-collins.scn -metric hnspf", 0, "", `Scenario "utah-collins": 700 s, 8 events`},
		{"-scenario ../../examples/flapping/utah-collins.scn -warmup 800 -metric hnspf", 1,
			"Spec.Script's duration 700 ends within Spec.WarmupSeconds 800", ""},
		{"-seconds 0 -metric hnspf", 1, "Spec.Seconds 100 ends within Spec.WarmupSeconds 100", ""},
		{"-seconds Inf -metric hnspf", 2, "-seconds +Inf is not finite", ""},
		{"-traffic Inf -metric hnspf -seconds 10", 2, "-traffic +Inf is not finite", ""},
		{"-growth Inf -seconds 10", 2, "-growth +Inf is not finite", ""},
		{"-shards 1 -topology hier:2x3 -seconds Inf", 2, "-seconds +Inf is not finite", ""},
		{"-seconds 1e300 -metric hnspf", 2, "-seconds 1e+300 is past the simulated clock's range", ""},
		{"-warmup 1e13 -seconds 1e13 -metric hnspf", 2, "-warmup 1e+13 is past the simulated clock's range", ""},
		{"-shards 1 -topology hier:2x3 -seconds 1e300", 2, "-seconds 1e+300 is past the simulated clock's range", ""},
		{"-metric nonsense", 2, `unknown -metric "nonsense"`, ""},
		{"-seeds 9223372036854775807", 1, "RunSeeds n 9223372036854775807: the seeds from Spec.Seed 1987 on leave int64", ""},
		{"-seeds 9223372036854775807 -seed 1", 1, "RunSeeds n 9223372036854775807: no allocation holds that many results", ""},
		{"-rate 1 -seeds 3 -warmup 5 -seconds 10", 0, "", "Spread over 3 seeds"},
		{"-rate 1 -traffic 100", 2, "-traffic has no effect with per-node traffic", ""},
		{"-topology hier:2x3 -metric static -warmup 0 -seconds 5", 0, "", "static routes (5s measured)\n"},
		{"-topology hier:2x3 -warmup 5 -seconds 5", 0, "", "Table 1: Network-wide Performance Indicators\n"},
		{"-topology nowhere", 2, `"nowhere"`, ""},
		{"-shards 2 -rate 1 -metric minhop -scenario ../../examples/flapping/utah-collins.scn", 0, "",
			"Scenario \"utah-collins\": 700 s, 8 events\n\nmin-hop\n"},
		{"-shards 2 -rate 1 -scenario " + unknown, 1, `unknown node "NOWHERE"`, ""},
		{"-shards 2 -rate 1 -scenario " + fluid, 1, "surge background at 10.000000s requires a background matrix (hybrid mode)", ""},
		{"-shards 2 -scenario " + fluid, 1, "surge background at 10.000000s requires a background matrix (hybrid mode)", ""},
		{"-shards 2 -scenario " + unknown, 1, `unknown node "NOWHERE"`, ""},
		{"-shards 2 -rate 1 -metric bf1969 -scenario ../../examples/flapping/utah-collins.scn", 0, "",
			"\nBellman-Ford 1969\n"},
		{"-shards 5000 -rate 1 -metric bf1969 -seconds 60", 1, "Spec.Shards 5000", ""},
		{"-rate 1 -metric static -scenario ../../examples/flapping/utah-collins.scn", 1, "Spec.StaticRoutes runs no Spec.Script", ""},
		{"-metric static -scenario ../../examples/flapping/utah-collins.scn", 1, "Spec.StaticRoutes runs no Spec.Script", ""},
		{"-adaptive", 2, "flag provided but not defined: -adaptive", ""},
		{"-nonsense", 2, "flag provided but not defined: -nonsense", ""},
		{"-background 28000", 2, "flag provided but not defined: -background", ""},
		{"-background-epoch 5", 2, "flag provided but not defined: -background-epoch", ""},
	} {
		var out, errb strings.Builder
		code := run(strings.Fields(tc.args), &out, &errb)
		first, _, _ := strings.Cut(errb.String(), "\n")
		if code != tc.code || !strings.Contains(first, tc.stderr) || tc.stderr == "" && errb.Len() > 0 ||
			!strings.Contains(out.String(), tc.stdout) {
			t.Errorf("arpanetsim %s: exit %d, stderr %q, stdout %q; want exit %d, stderr with %q, stdout with %q",
				tc.args, code, first, out.String(), tc.code, tc.stderr, tc.stdout)
		}
	}
}
