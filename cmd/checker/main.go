// Command checker runs randomized correctness campaigns against the
// routing stack, all from internal/check: differential SPF oracles, metric
// and flood invariants, scenario audits, the hybrid fluid/packet
// differential, and the two shard pillars, the shard differential
// (the partitioner's 2- and 4-shard cuts) and the shard custody torture (a
// random cut under congestion), each holding its cuts to the one-shard run
// on every link's cost series, the merged trace and the report.
//
//	checker -campaigns 25 -seed 1             # CI smoke
//	checker -campaigns 5000 -seed 1 -out ./repro   # the weekly long run
//
// Campaign i runs under seed+i and every campaign is deterministic from
// its seed, so output is byte-identical at any GOMAXPROCS (the campaigns
// fan out over that many workers) and a failure reruns alone with
// -campaigns 1 -seed <its seed>. On failure the minimized reproducers are
// printed and, with -out, written one file per failure (the five scripted
// pillars' as runnable .scn scripts); the exit status is 1. A -campaigns
// below one or a stray argument is refused with usage and exit status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/check"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the campaigns and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("checker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		campaigns = fs.Int("campaigns", 100, "number of campaigns to run (at least one)")
		seed      = fs.Int64("seed", 1, "base seed; campaign i uses seed+i")
		out       = fs.String("out", "", "directory to write failure reproducers into")
		verbose   = fs.Bool("v", false, "print every campaign's log line, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "checker: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		// Flag parsing stops at the first non-flag, so every flag after it
		// would be ignored.
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *campaigns < 1 {
		return usage("-campaigns must be at least 1, got %d", *campaigns)
	}

	results := check.Run(check.Options{Campaigns: *campaigns, Seed: *seed})

	failures := 0
	for _, r := range results {
		if *verbose || len(r.Failures) > 0 {
			fmt.Fprintln(stdout, r.Log)
		}
		for _, f := range r.Failures {
			failures++
			fmt.Fprintf(stdout, "--- %s\n", f.String())
			if *out != "" {
				if err := writeRepro(*out, failures, f); err != nil {
					fmt.Fprintf(stderr, "checker: writing reproducer: %v\n", err)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "checker: %d campaigns, %d failures (seeds %d..%d)\n",
		len(results), failures, *seed, *seed+int64(*campaigns)-1)
	if failures > 0 {
		return 1
	}
	return 0
}

// writeRepro saves one failure's minimized reproducer. The five scripted
// pillars produce complete .scn scripts; the SPF and metric checks a .txt
// op list. The file name carries the checker and seed, which is all a rerun
// needs.
func writeRepro(dir string, n int, f *check.Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ext := ".txt"
	switch f.Check {
	case "flood-delivery", "scenario-audit", "hybrid-differential", "shard-differential", "shard-custody":
		ext = ".scn"
	}
	name := fmt.Sprintf("%03d-%s-seed%d%s", n, f.Check, f.Seed, ext)
	return os.WriteFile(filepath.Join(dir, name), []byte(f.Repro), 0o644)
}
