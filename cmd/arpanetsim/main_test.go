package main

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
)

// One parser serves the Table 1 study, -scenario and -shards: every name
// means the same kinds in each, and anything else is an error, never a
// silent min-hop.
func TestMetricKinds(t *testing.T) {
	cases := []struct {
		name string
		want []node.MetricKind // nil: rejected
	}{
		{"hnspf", []node.MetricKind{node.HNSPF}},
		{"dspf", []node.MetricKind{node.DSPF}},
		{"minhop", []node.MetricKind{node.MinHop}},
		{"both", []node.MetricKind{node.DSPF, node.HNSPF}},
		{"bf1969", []node.MetricKind{node.BF1969}},
		{"", nil},
		{"nonsense", nil},
	}
	for _, tc := range cases {
		got, err := metricKinds(tc.name)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("metricKinds(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		for _, k := range got {
			if m, ok := apiMetric[k]; !ok || m.String() != k.String() {
				t.Errorf("metricKinds(%q): kind %v has no public-API twin (got %v)", tc.name, k, m)
			}
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

// What the sharded simulator would refuse is refused with the other flags,
// before anything runs (main exits 2 with usage), never by log.Fatal after
// set-up. The BF-1969 leg is validated as the one-shard probe it builds.
func TestShardConfigValidated(t *testing.T) {
	g, err := parseGenTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args        string
		shards      int
		rate        float64
		dests       int
		adaptive    bool
		metric      node.MetricKind
		errContains string // "": accepted
	}{
		{"-shards 2", 2, 1, 3, false, node.HNSPF, ""},
		{"-shards 2 -adaptive -metric dspf", 2, 1, 3, true, node.DSPF, ""},
		{"-shards 200 -adaptive -metric bf1969", 200, 1, 3, true, node.BF1969, ""},
		{"-shards 2 -rate 0", 2, 0, 3, false, node.HNSPF, "PktRate"},
		{"-shards 2 -dests 0", 2, 1, 0, false, node.HNSPF, "Dests"},
		{"-shards 200", 200, 1, 3, false, node.HNSPF, "200 shards for 32 nodes"},
		{"-shards 2 -adaptive -metric bf1969 -dests 0", 2, 1, 0, true, node.BF1969, "Dests"},
	} {
		err := shardConfig(tc.shards, g, tc.rate, tc.dests, 0, 1, tc.adaptive, tc.metric).Validate()
		if (err == nil) != (tc.errContains == "") || err != nil && !strings.Contains(err.Error(), tc.errContains) {
			t.Errorf("%s -topology hier:4x8: err = %v, want %q", tc.args, err, tc.errContains)
		}
	}
}

// The kernel line follows the barrier line and says what KernelStats says.
func TestKernelLine(t *testing.T) {
	g, err := parseGenTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.New(shardConfig(2, g, 20, 3, 1, 1, false, node.HNSPF))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2 * sim.Second)
	var out strings.Builder
	printCounters(&out, s)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "barrier ") {
		t.Fatalf("counters printed %q, want events, barrier and kernel lines", out.String())
	}
	var slots, buckets int
	var width sim.Time
	var retunes uint64
	var ladder float64
	if _, err := fmt.Sscanf(lines[2], "kernel %d slots, %d buckets, width %dus, %d retunes, ladder %f%% of fires",
		&slots, &buckets, &width, &retunes, &ladder); err != nil {
		t.Fatalf("kernel line %q: %v", lines[2], err)
	}
	k := s.KernelStats()
	share := 100 * float64(k.LadderPops) / float64(k.Fired)
	if slots != k.Slots || buckets != k.Buckets || width != k.Width || retunes != k.Retunes ||
		math.Abs(ladder-share) > 0.005 || k.Fired == 0 {
		t.Errorf("kernel line %q, KernelStats %+v (ladder %.4f%%)", lines[2], k, share)
	}
}

// -topology is outside input: a spec the generators would panic on must come
// back as an error that names it, and an accepted one as a graph a simulator
// can boot from — Validate-clean, every link at the line number it reports.
func TestParseGenTopology(t *testing.T) {
	for _, spec := range []string{"hier:2x2", "hier:1x9", "hier:3", "hier:ax4", "hier:4xb", "waxman:1", "waxman:x", "ring:5", "hier", "",
		// Sizes nothing could run are refused before a node is built; a hub with
		// more lines than a 16-bit line number names is the generator's refusal.
		"hier:99999x99999", "hier:1024x1025", "waxman:100000000", "waxman:16385", "hier:3x70000",
	} {
		g, err := parseGenTopology(spec, 1)
		if err == nil || g != nil || !strings.Contains(err.Error(), strconv.Quote(spec)) {
			t.Errorf("parseGenTopology(%q) = %v, %v; want an error naming the spec", spec, g, err)
		}
	}
	for spec, nodes := range map[string]int{"hier:8x8": 64, "waxman:64": 64} {
		g, err := parseGenTopology(spec, 1)
		if err != nil || g.NumNodes() != nodes {
			t.Errorf("parseGenTopology(%q): %v, want %d nodes", spec, err, nodes)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		for _, l := range g.Links() {
			if o, in := g.OutLine(l.ID), g.InLine(l.ID); o >= g.Degree(l.From) || in >= g.Degree(l.To) {
				t.Errorf("%s: link %d is line %d of %d out of node %d, line %d of %d into node %d",
					spec, l.ID, o, g.Degree(l.From), l.From, in, g.Degree(l.To), l.To)
			}
		}
	}
}
