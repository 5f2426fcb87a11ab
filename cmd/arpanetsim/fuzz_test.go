package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	arpanet "repro"
)

// FuzzRun drives the whole command with arbitrary argument lists (the input,
// split on white space): every one exits 0, 1 or 2 and none panics. The
// corpus holds each refusal checkFlags and numberFlag make, by name, and a
// malformed generated-topology spec of each kind; inputs that would touch a
// file or simulate more than a few seconds are skipped (cheap). The
// -background… seeds name flags the command does not define: the flag
// package refuses them.
func FuzzRun(f *testing.F) {
	for _, args := range []string{
		// checkFlags: a flag the chosen mode never reads, or a map it cannot build.
		"-shards 2 -adaptive -scenario x.scn -seconds 5", "-shards 2 -background 100", "-shards 2 -background-epoch 5",
		"-shards 2 -rate 1 -seeds 2", "-shards 2 -dests 2 -json", "-shards 2 -radius 1 -traffic 100", "-shards 2 -adaptive -growth 2",
		"-shards 2 -adaptive -warmup 5", "-shards 2 -rate 1 -metric hnspf", "-rate 2 -seeds 2", "-dests 2 -json", "-radius 1 -traffic 100",
		"-adaptive -growth 2", "-scenario x.scn -seconds 5", "-scenario x.scn -growth 2",
		"-background-epoch 5", "-metric dspf -growth 2", "-topology hier:4x8 -warmup 5",
		// numberFlag: NaN, below zero, a zero seed count.
		"-seconds NaN", "-traffic -5", "-growth -1", "-warmup -1", "-seeds 0",
		"-background 100 -background-epoch 0", "-shards -1",
		// metricKinds and the flag package.
		"-metric nonsense", "-nosuchflag", "-seconds", "stray",
		// Malformed generated topologies, and what arpanet.Run refuses.
		"-shards 1 -topology hier:4y8 -seconds 1", "-shards 1 -topology waxman:x -seconds 1",
		"-shards 2 -topology hier:2x3 -seconds 1 -rate 0", "-shards 1 -rate Inf",
		// Runs that finish in well under a second.
		"-seconds 5 -warmup 1", "-metric bf1969 -seconds 2 -warmup 1 -json", "-shards 2 -seconds 5 -warmup 1 -seeds 2",
		"-shards 2 -topology hier:2x4 -seconds 2 -adaptive", "-shards 1 -topology waxman:20 -seconds 2",
		// checkFlags for a script on the sharded engine (-seconds leads the
		// list): no -adaptive, and each flag the script or the mode replaces,
		// under the 1969 protocol too.
		"-shards 2 -rate 1 -scenario x.scn", "-shards 2 -adaptive -metric bf1969 -scenario x.scn -seconds 5",
		"-shards 2 -adaptive -scenario x.scn -seeds 2", "-shards 2 -adaptive -scenario x.scn -json",
		"-shards 2 -adaptive -scenario x.scn -traffic 100", "-shards 2 -adaptive -scenario x.scn -growth 2",
		"-shards 2 -adaptive -scenario x.scn -warmup 5",
		// numberFlag: an infinite horizon.
		"-seconds Inf",
		// numberFlag: a horizon past the simulated clock's range.
		"-seconds 1e300",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Fields(line)
		if !cheap(args) {
			t.Skip("touches a file or simulates more than a few seconds")
		}
		if code := run(args, io.Discard, io.Discard); code < 0 || code > 2 {
			t.Fatalf("run(%q) exited %d, want 0, 1 or 2", args, code)
		}
	})
}

// cheap reports whether run(args) stays off the file system and simulates at
// most a few seconds of wall time: an invocation the flag checks refuse
// always does; else no script or profile, at most 30 simulated seconds at up
// to twice the default load and two seeds on at most 4 shards, and the
// per-node mode at most 20 seconds on 64 nodes (what arpanet.Run refuses
// among them).
func cheap(args []string) bool {
	o, fs, err := parse(args, io.Discard)
	if err != nil {
		return true
	}
	if _, err := o.check(fs); err != nil {
		return true
	}
	if o.scenario != "" || o.cpuProfile != "" || o.memProfile != "" {
		return false
	}
	if o.perNode {
		var regions, per, n int
		switch {
		case o.topology == "arpanet":
			n = arpanet.Arpanet1987().NumNodes()
		case o.topology == "milnet":
			n = arpanet.Milnet1987().NumNodes()
		case strings.HasPrefix(o.topology, "hier:"):
			fmt.Sscanf(o.topology, "hier:%dx%d", &regions, &per)
			n = regions * per
		default:
			fmt.Sscanf(o.topology, "waxman:%d", &n)
		}
		if regions < 0 || per < 0 || n > 64 || o.shards > 8 {
			return false
		}
		return o.seconds <= 20 && o.rate <= 5
	}
	return o.warmup+o.seconds <= 30 && o.traffic <= 560 && o.seeds <= 2 && o.shards <= 4
}
