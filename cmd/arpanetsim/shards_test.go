package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/shard"
	"repro/internal/sim"
)

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
	s.Run(10 * sim.Second) // past a tune check, so the calendar has sorted a front
	var out strings.Builder
	printCounters(&out, s)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "barrier ") {
		t.Fatalf("counters printed %q, want events, barrier and kernel lines", out.String())
	}
	var slots, buckets int
	var width sim.Time
	var retunes, sorted uint64
	var ladder float64
	if _, err := fmt.Sscanf(lines[2], "kernel %d slots, %d buckets, width %dus, %d retunes, ladder %f%% of fires, %d front-sorted",
		&slots, &buckets, &width, &retunes, &ladder, &sorted); err != nil {
		t.Fatalf("kernel line %q: %v", lines[2], err)
	}
	k := s.KernelStats()
	share := 100 * float64(k.LadderPops) / float64(k.Fired)
	if slots != k.Slots || buckets != k.Buckets || width != k.Width || retunes != k.Retunes ||
		math.Abs(ladder-share) > 0.005 || sorted != k.Sorted || k.Fired == 0 || k.Sorted == 0 {
		t.Errorf("kernel line %q, KernelStats %+v (ladder %.4f%%)", lines[2], k, share)
	}
}

// The routes line, printed after the kernel line on the static plane, says
// what RouteStats says.
func TestRoutesLine(t *testing.T) {
	g, err := parseGenTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.New(shardConfig(2, g, 20, 3, 1, 1, false, node.HNSPF))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	printRoutes(&out, s)
	var r shard.RouteStats
	if _, err := fmt.Sscanf(out.String(), "routes %d entries, %d bytes, dense 2·D·N %d bytes\n",
		&r.Entries, &r.Bytes, &r.DenseBytes); err != nil {
		t.Fatalf("routes line %q: %v", out.String(), err)
	}
	if want := s.RouteStats(); r != want || r.Entries == 0 {
		t.Errorf("routes line %q, RouteStats %+v", out.String(), want)
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
	for spec, nodes := range map[string]int{"hier:8x8": 64, "waxman:64": 64, "arpanet": 30} {
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

// -shards prints the one Report, Table 1's rows included, and its bytes
// (the events line too) do not depend on the shard count: only the header
// and the barrier and kernel counters do.
func TestShardedTable1Rows(t *testing.T) {
	report := func(shards string) string {
		var out, errOut strings.Builder
		if code := run([]string{"-shards", shards, "-topology", "arpanet", "-adaptive", "-metric", "hnspf", "-seconds", "60"}, &out, &errOut); code != 0 {
			t.Fatalf("-shards %s exited %d: %s", shards, code, errOut.String())
		}
		_, body, _ := strings.Cut(out.String(), "\n")
		body, _, _ = strings.Cut(body, "\nbarrier ")
		return body
	}
	one := report("1")
	for _, row := range []string{"HN-SPF (60s measured)", "\n  Round Trip Delay (ms) ", "\n  Path Ratio (Actual/Min.) ", "\nevents "} {
		if !strings.Contains(one, row) {
			t.Errorf("-shards 1 printed no %q:\n%s", row, one)
		}
	}
	if two := report("2"); two != one {
		t.Errorf("-shards 2 printed\n%s\n-shards 1 printed\n%s", two, one)
	}
}
