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
// -background… and -adaptive seeds name flags the command does not define:
// the flag package refuses them.
func FuzzRun(f *testing.F) {
	for _, args := range []string{
		// checkFlags: a flag the run never reads.
		"-shards 2 -rate 1 -traffic 100", "-radius 1 -traffic 100", "-topology hier:4x8 -traffic 100",
		"-scenario x.scn -seconds 5", "-shards 2 -rate 1 -metric bf1969 -scenario x.scn -seconds 5",
		"-scenario x.scn -growth 2", "-metric dspf -growth 2", "-metric static -growth 2", "-rate 1 -metric hnspf -growth 2",
		// Flags the command does not define.
		"-shards 2 -background 100", "-shards 2 -background-epoch 5", "-background 100 -background-epoch 0", "-adaptive",
		// numberFlag: NaN, below zero, a zero seed count, an infinite
		// horizon and ones past the simulated clock's range.
		"-seconds NaN", "-traffic -5", "-growth -1", "-warmup -1", "-seeds 0", "-shards -1", "-seconds Inf", "-seconds 1e300",
		"-seeds -1", "-dests -1", "-radius -1", "-warmup 1e300",
		// metricKinds and the flag package; a stray argument ends the flags
		// and leaves the default study, too long to run here.
		"-metric nonsense", "-nosuchflag", "-seconds", "stray",
		// Malformed generated topologies, and what arpanet.RunSeeds refuses,
		// with no warm-up so the run is cheap enough to reach the refusal.
		"-shards 1 -topology hier:4y8 -seconds 1 -warmup 0", "-shards 1 -topology waxman:x -seconds 1 -warmup 0",
		"-topology hier:0x4 -seconds 1 -warmup 0", "-topology waxman:0 -seconds 1 -warmup 0",
		"-shards 2 -topology hier:2x3 -seconds 1 -warmup 0 -rate 0", "-rate 1 -dests 0 -seconds 1 -warmup 0", "-shards 1 -rate Inf",
		// Runs that finish in well under a second, on either traffic.
		"-seconds 5 -warmup 1", "-metric bf1969 -seconds 2 -warmup 1 -json", "-shards 2 -seconds 5 -warmup 1 -seeds 2",
		"-metric static -seconds 2 -warmup 1", "-shards 2 -topology hier:2x4 -seconds 2 -warmup 0 -metric static",
		"-shards 2 -topology hier:2x4 -seconds 2 -warmup 1 -seeds 2 -json", "-shards 1 -topology waxman:20 -seconds 2 -warmup 0",
		"-rate 2 -metric hnspf -seconds 2 -warmup 1", "-topology milnet -seconds 2 -warmup 1", "-metric minhop -seconds 2 -warmup 1",
		"-rate 1 -seeds 2 -seconds 2 -warmup 1 -json", "-rate 1 -radius 2 -growth 2 -seconds 2 -warmup 1",
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
// always does; else no script or profile, and at most two seeds of each
// run, whose load -growth grows: at most 30 simulated seconds at up to twice
// the default gravity load on at most 4 shards, or with per-node traffic at
// most 20 seconds on 64 nodes (what arpanet.RunSeeds refuses among them).
func cheap(args []string) bool {
	o, fs, err := parse(args, io.Discard)
	if err != nil {
		return true
	}
	if _, err := o.check(fs); err != nil {
		return true
	}
	if o.scenario != "" || o.cpuProfile != "" || o.memProfile != "" || o.seeds > 2 {
		return false
	}
	grow := max(o.growth, 1)
	if o.perNode() {
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
		return o.warmup+o.seconds <= 20 && o.rate*grow <= 5
	}
	return o.warmup+o.seconds <= 30 && o.traffic*grow <= 560 && o.shards <= 4
}
