package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	arpanet "repro"
	"repro/internal/shard"
	"repro/internal/sim"
)

// staticRun runs the static plane on hier:4x8 at two shards for 10 s, past
// a tune check, so the calendar has sorted a front.
func staticRun(t *testing.T) arpanet.Result {
	t.Helper()
	topo, err := arpanet.ParseTopology("hier:4x8", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := arpanet.Run(arpanet.Spec{Topology: topo, NodeTraffic: &arpanet.NodeTraffic{Rate: 20, Dests: 3, Radius: 1},
		Seed: 1, Seconds: 10, Shards: 2, StaticRoutes: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The kernel line follows the barrier line and says what the run's kernel
// counters say.
func TestKernelLine(t *testing.T) {
	st := staticRun(t).Stats
	var out strings.Builder
	printCounters(&out, st)
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
	k := st.Kernel
	share := 100 * float64(k.LadderPops) / float64(k.Fired)
	if slots != k.Slots || buckets != k.Buckets || width != k.Width || retunes != k.Retunes ||
		math.Abs(ladder-share) > 0.005 || sorted != k.Sorted || k.Fired == 0 || k.Sorted == 0 || k.Fired != st.Events {
		t.Errorf("kernel line %q, kernel stats %+v (ladder %.4f%%), %d events", lines[2], k, share, st.Events)
	}
}

// The routes line, printed after the kernel line on the static plane, says
// what the run's route table counters say.
func TestRoutesLine(t *testing.T) {
	st := staticRun(t).Stats
	var out strings.Builder
	printRoutes(&out, st)
	var r shard.RouteStats
	if _, err := fmt.Sscanf(out.String(), "routes %d entries, %d bytes, dense 2·D·N %d bytes\n",
		&r.Entries, &r.Bytes, &r.DenseBytes); err != nil {
		t.Fatalf("routes line %q: %v", out.String(), err)
	}
	if r != st.Routes || r.Entries == 0 {
		t.Errorf("routes line %q, route stats %+v", out.String(), st.Routes)
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

// Without a per-node flag, -shards splits the Table 1 study and prints the
// same bytes at 0, 1 and 2 shards.
func TestShardsRunTheStudy(t *testing.T) {
	var want string
	for _, shards := range []string{"0", "1", "2"} {
		var out, errOut strings.Builder
		if code := run([]string{"-shards", shards, "-warmup", "10", "-seconds", "60"}, &out, &errOut); code != 0 {
			t.Fatalf("-shards %s exited %d: %s", shards, code, errOut.String())
		}
		if shards == "0" {
			want = out.String()
		} else if got := out.String(); got != want {
			t.Errorf("-shards %s printed\n%s\n-shards 0 printed\n%s", shards, got, want)
		}
	}
	if !strings.Contains(want, "Table 1: Network-wide Performance Indicators") {
		t.Errorf("printed no Table 1:\n%s", want)
	}
}
