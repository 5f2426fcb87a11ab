// Command checker runs randomized correctness campaigns against the
// routing stack: differential SPF oracles, metric and flood invariants,
// scenario audits, the hybrid fluid/packet differential, and the sharded
// adaptive-routing differential and custody torture, all from
// internal/check.
//
//	checker -campaigns 100 -seed 1            # CI smoke
//	checker -campaigns 5000 -seed 1 -out ./repro   # the weekly long run
//
// Campaign i runs under seed+i and every campaign is deterministic from
// its seed, so output is byte-identical at any GOMAXPROCS (the campaigns
// fan out over that many workers) and a failure reruns alone with
// -campaigns 1 -seed <its seed>. On failure the
// minimized reproducers are printed and, with -out, written one file per
// failure (scenario failures as runnable .scn scripts); the exit status
// is 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/check"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("checker: ")
	var (
		campaigns = flag.Int("campaigns", 100, "number of campaigns to run")
		seed      = flag.Int64("seed", 1, "base seed; campaign i uses seed+i")
		out       = flag.String("out", "", "directory to write failure reproducers into")
		verbose   = flag.Bool("v", false, "print every campaign's log line, not just failures")
	)
	flag.Parse()

	results := check.Run(check.Options{Campaigns: *campaigns, Seed: *seed})

	failures := 0
	for _, r := range results {
		if *verbose || len(r.Failures) > 0 {
			fmt.Println(r.Log)
		}
		for _, f := range r.Failures {
			failures++
			fmt.Printf("--- %s\n", f.String())
			if *out != "" {
				if err := writeRepro(*out, failures, f); err != nil {
					log.Printf("writing reproducer: %v", err)
				}
			}
		}
	}
	fmt.Printf("checker: %d campaigns, %d failures (seeds %d..%d)\n",
		len(results), failures, *seed, *seed+int64(*campaigns)-1)
	if failures > 0 {
		os.Exit(1)
	}
}

// writeRepro saves one failure's minimized reproducer. Scenario audits
// produce complete .scn scripts; everything else is a .txt op list. The
// file name carries the checker and seed, which is all a rerun needs.
func writeRepro(dir string, n int, f *check.Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ext := ".txt"
	switch f.Check {
	case "scenario-audit", "hybrid-differential", "shard-differential", "shard-custody":
		ext = ".scn"
	}
	name := fmt.Sprintf("%03d-%s-seed%d%s", n, f.Check, f.Seed, ext)
	return os.WriteFile(filepath.Join(dir, name), []byte(f.Repro), 0o644)
}
