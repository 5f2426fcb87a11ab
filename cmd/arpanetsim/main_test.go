package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	arpanet "repro"
)

// One parser serves the Table 1 study, -scenario and -shards: every name
// means the same kinds in each, and anything else is an error, never a
// silent min-hop.
func TestMetricKinds(t *testing.T) {
	cases := []struct {
		name string
		want []arpanet.Metric // nil: rejected
	}{
		{"hnspf", []arpanet.Metric{arpanet.HNSPF}},
		{"dspf", []arpanet.Metric{arpanet.DSPF}},
		{"minhop", []arpanet.Metric{arpanet.MinHop}},
		{"both", []arpanet.Metric{arpanet.DSPF, arpanet.HNSPF}},
		{"bf1969", []arpanet.Metric{arpanet.BF1969}},
		{"", nil},
		{"nonsense", nil},
	}
	for _, tc := range cases {
		got, err := metricKinds(tc.name)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("metricKinds(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// A flag the chosen mode never reads is rejected by name before anything
// runs, as is a -topology only -shards builds; a flag left at its default
// never counts.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args     string // flags set on the command line
		shards   int
		adaptive bool
		scenario string
		topology string // "": the default, arpanet
		metric   string
		reject   string // "": accepted; else the flag the error must name
	}{
		// The three modes with the flags they read.
		{args: "", metric: "both"},
		{args: "metric traffic growth seconds warmup seed seeds json topology", metric: "both"},
		{args: "metric traffic seconds", metric: "hnspf"},
		{args: "scenario metric traffic warmup seed seeds json topology", scenario: "flap.scn", metric: "hnspf"},
		{args: "shards topology seconds seed rate dests radius cpuprofile memprofile", shards: 2, metric: "both"},
		{args: "shards adaptive metric", shards: 2, adaptive: true, metric: "hnspf"},
		{args: "shards adaptive metric", shards: 2, adaptive: true, metric: "bf1969"},
		{args: "shards adaptive metric scenario seed rate dests radius topology", shards: 2, adaptive: true, scenario: "flap.scn", metric: "hnspf"},
		// -shards returns before these were ever looked at.
		{args: "shards seeds", shards: 2, metric: "both", reject: "-seeds"},
		{args: "shards json", shards: 2, metric: "both", reject: "-json"},
		{args: "shards traffic", shards: 2, metric: "both", reject: "-traffic"},
		{args: "shards growth", shards: 2, metric: "both", reject: "-growth"},
		{args: "shards warmup", shards: 2, metric: "both", reject: "-warmup"},
		{args: "shards metric", shards: 2, metric: "hnspf", reject: "-metric"},
		// The script supplies the sharded run's duration, and it runs one seed at one load.
		{args: "shards scenario", shards: 2, scenario: "flap.scn", metric: "both", reject: "-scenario"},
		{args: "shards adaptive scenario seconds", shards: 2, adaptive: true, scenario: "flap.scn", metric: "both", reject: "-seconds"},
		{args: "shards adaptive scenario seeds", shards: 2, adaptive: true, scenario: "flap.scn", metric: "both", reject: "-seeds"},
		{args: "shards adaptive scenario json", shards: 2, adaptive: true, scenario: "flap.scn", metric: "both", reject: "-json"},
		{args: "shards adaptive scenario traffic", shards: 2, adaptive: true, scenario: "flap.scn", metric: "both", reject: "-traffic"},
		{args: "shards adaptive scenario growth", shards: 2, adaptive: true, scenario: "flap.scn", metric: "both", reject: "-growth"},
		{args: "shards adaptive scenario warmup", shards: 2, adaptive: true, scenario: "flap.scn", metric: "both", reject: "-warmup"},
		{args: "shards adaptive metric scenario", shards: 2, adaptive: true, scenario: "flap.scn", metric: "bf1969", reject: "-metric"},
		// The sharded runner's knobs without -shards.
		{args: "adaptive", adaptive: true, metric: "both", reject: "-adaptive"},
		{args: "rate", metric: "both", reject: "-rate"},
		{args: "dests", metric: "both", reject: "-dests"},
		{args: "radius", metric: "both", reject: "-radius"},
		{args: "shards rate", shards: 0, metric: "both", reject: "-rate"},
		{args: "scenario adaptive", adaptive: true, scenario: "flap.scn", metric: "both", reject: "-adaptive"},
		// The script supplies the duration, and runs every metric at one load.
		{args: "scenario seconds", scenario: "flap.scn", metric: "both", reject: "-seconds"},
		{args: "scenario growth", scenario: "flap.scn", metric: "both", reject: "-growth"},
		{args: "metric growth", metric: "dspf", reject: "-growth"},
		// Generated maps are the sharded runner's; the other modes know two.
		{args: "shards topology", shards: 2, topology: "hier:4x8", metric: "both"},
		{args: "topology", topology: "milnet", metric: "both"},
		{args: "topology", topology: "foo", metric: "both", reject: "-topology"},
		{args: "topology", topology: "hier:4x8", metric: "both", reject: "-topology"},
		{args: "scenario topology", scenario: "flap.scn", topology: "waxman:64", metric: "hnspf", reject: "-topology"},
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
		topology := tc.topology
		if topology == "" {
			topology = "arpanet"
		}
		err = checkFlags(set, tc.shards, tc.adaptive, tc.scenario, topology, kinds)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("flags %q: rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.reject+" ")):
			t.Errorf("flags %q: err = %v, want %s rejected", tc.args, err, tc.reject)
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
// does not have exits 1 with the reason on stderr; a committed script runs
// and exits 0; flags no mode can mean exit 2 with usage.
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
		{"-shards 2 -seeds 3", 2, "-seeds has no effect with -shards", ""},
		{"-shards 2 -adaptive -metric minhop -scenario ../../examples/flapping/utah-collins.scn", 0, "",
			"checkpoints 14, 373 of 420 origins with no update in flight"},
		{"-shards 2 -adaptive -scenario " + unknown, 1, `unknown node "NOWHERE"`, ""},
		{"-shards 2 -adaptive -scenario " + fluid, 1, "surge background at 10.000000s: the sharded engine runs trunk events and checkpoints only", ""},
		{"-shards 2 -adaptive -metric bf1969 -scenario " + unknown, 2, "-metric bf1969 runs no -scenario with -shards", ""},
		{"-shards 2 -scenario " + unknown, 2, "-scenario with -shards needs -adaptive", ""},
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
