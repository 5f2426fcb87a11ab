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
		args       string // flags set on the command line
		shards     int
		adaptive   bool
		scenario   string
		topology   string // "": the default, arpanet
		background float64
		metric     string
		reject     string // "": accepted; else the flag the error must name
	}{
		// The three modes with the flags they read.
		{args: "", metric: "both"},
		{args: "metric traffic growth seconds warmup seed seeds json topology background background-epoch", background: 28000, metric: "both"},
		{args: "metric traffic seconds", metric: "hnspf"},
		{args: "scenario metric traffic warmup seed seeds json topology background", scenario: "flap.scn", background: 100, metric: "hnspf"},
		{args: "shards topology seconds seed rate dests radius cpuprofile memprofile", shards: 2, metric: "both"},
		{args: "shards adaptive metric", shards: 2, adaptive: true, metric: "hnspf"},
		{args: "shards adaptive metric", shards: 2, adaptive: true, metric: "bf1969"},
		// -shards returns before these were ever looked at.
		{args: "shards scenario", shards: 2, scenario: "flap.scn", metric: "both", reject: "-scenario"},
		{args: "shards background", shards: 2, background: 100, metric: "both", reject: "-background"},
		{args: "shards seeds", shards: 2, metric: "both", reject: "-seeds"},
		{args: "shards json", shards: 2, metric: "both", reject: "-json"},
		{args: "shards traffic", shards: 2, metric: "both", reject: "-traffic"},
		{args: "shards growth", shards: 2, metric: "both", reject: "-growth"},
		{args: "shards warmup", shards: 2, metric: "both", reject: "-warmup"},
		{args: "shards metric", shards: 2, metric: "hnspf", reject: "-metric"},
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
		{args: "background-epoch", metric: "both", reject: "-background-epoch"},
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
		err = checkFlags(set, tc.shards, tc.adaptive, tc.scenario, topology, tc.background, len(kinds))
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("flags %q: rejected: %v", tc.args, err)
		case tc.reject != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.reject+" ")):
			t.Errorf("flags %q: err = %v, want %s rejected", tc.args, err, tc.reject)
		}
	}
}

// flag.Float64 accepts "NaN"; the simulator's time conversion panics on it,
// so the command line must refuse it by name first.
func TestNaNFlagRejected(t *testing.T) {
	for _, tc := range []struct{ args, reject string }{
		{"-seconds 12 -rate 0.5", ""},
		{"-seconds NaN", "-seconds"},
		{"-seconds 12 -rate nan", "-rate"},
		{"-seconds +Inf", ""}, // a run that never ends is the caller's to ask for
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
// refused by name — as are a fluid epoch of zero and -seeds 0 — and zero
// itself, a negative -seed and every default pass.
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
		{"-background -5", "-background -5 is negative"},
		{"-background 100 -background-epoch 0", "-background-epoch must be positive"},
		{"-background 100 -background-epoch -2", "-background-epoch -2 is negative"},
		{"-background 100 -background-epoch 0.5 -traffic 0 -warmup 0 -seconds 0 -radius 0 -seed -7", ""},
		{"", ""},
	} {
		fs := flag.NewFlagSet("arpanetsim", flag.ContinueOnError)
		for _, name := range []string{"traffic", "growth", "seconds", "warmup", "rate", "background", "background-epoch"} {
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
// later: each field of the first report is set to k and of the second to
// 3k, so the mean must read 2k everywhere but the path ratio, which it
// recomputes from the mean hop counts.
func TestMeanAveragesEveryField(t *testing.T) {
	var a, b arpanet.Report
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		k := int64(i + 1)
		switch va.Field(i).Kind() {
		case reflect.Float64:
			va.Field(i).SetFloat(float64(k))
			vb.Field(i).SetFloat(float64(3 * k))
		case reflect.Int64:
			va.Field(i).SetInt(k)
			vb.Field(i).SetInt(3 * k)
		case reflect.String:
			va.Field(i).SetString("D-SPF")
			vb.Field(i).SetString("D-SPF")
		default:
			t.Fatalf("Report.%s is a %v; mean averages float64 and int64 fields", va.Type().Field(i).Name, va.Field(i).Kind())
		}
	}
	rs := make([]arpanet.Result, 2)
	rs[0].Report, rs[1].Report = a, b
	m := mean(rs)
	vm := reflect.ValueOf(m)
	for i := 0; i < vm.NumField(); i++ {
		name, k := vm.Type().Field(i).Name, float64(i+1)
		want := 2 * k
		switch name {
		case "PathRatio":
			want = m.ActualPathHops / m.MinPathHops
		case "Metric":
			if m.Metric != "D-SPF" {
				t.Errorf("Metric = %q", m.Metric)
			}
			continue
		}
		var got float64
		if f := vm.Field(i); f.Kind() == reflect.Int64 {
			got = float64(f.Int())
		} else {
			got = f.Float()
		}
		if got != want {
			t.Errorf("mean %s = %v, want %v", name, got, want)
		}
	}
}

// run's exit status: a script that cannot be read or names a PSN the map
// does not have exits 1 with the reason on stderr; a committed script runs
// and exits 0; flags no mode can mean exit 2 with usage.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	unknown, empty := filepath.Join(dir, "unknown.scn"), filepath.Join(dir, "empty.scn")
	if err := os.WriteFile(unknown, []byte("duration 60\nat 10 down UTAH NOWHERE\n"), 0o644); err != nil {
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
		{"-scenario ../../examples/flapping/utah-collins.scn -metric hnspf", 0, "", `Scenario "utah-collins": 700 s, 8 events`},
		{"-metric nonsense", 2, `unknown -metric "nonsense"`, ""},
		{"-shards 2 -seeds 3", 2, "-seeds has no effect with -shards", ""},
		{"-nonsense", 2, "flag provided but not defined: -nonsense", ""},
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
