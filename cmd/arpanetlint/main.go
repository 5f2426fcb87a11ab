// Command arpanetlint runs the domain-aware static-analysis suite of
// internal/analysis over the repository: determinism (detdrift,
// interprocedural), sim.Handle discipline (handlecheck) and float
// comparison hygiene (floatexact).
//
//	arpanetlint ./...                   # whole repo (the CI lint job)
//	arpanetlint -rules detdrift ./internal/sim
//	arpanetlint -json ./... > lint.json
//	arpanetlint -list                   # one-line rule catalog
//
// Findings go to stdout as file:line:col: rule: message (hint); the exit
// status is 1 when anything is found (including package load errors),
// 2 on a driver error (bad flag, unknown rule, no module), and 0 on a
// clean tree. Suppress an intentional site with
// "// lint:ignore <rule> <reason>" on the line or the line above. Stale
// or malformed suppressions are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arpanetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit the machine-readable result schema")
		ruleList = fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
		list     = fs.Bool("list", false, "print the rule catalog and exit")
		chdir    = fs.String("C", "", "run as if started in this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, r := range analysis.AllRules() {
			fmt.Fprintf(stdout, "%-14s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	dir := *chdir
	if dir == "" {
		dir = "."
	}
	var names []string
	if *ruleList != "" {
		for _, n := range strings.Split(*ruleList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	res, err := analysis.Analyze(dir, fs.Args(), names)
	if err != nil {
		fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "arpanetlint: %v\n", err)
			return 2
		}
	} else {
		for _, e := range res.Errors {
			fmt.Fprintf(stdout, "load error: %s\n", e)
		}
		for _, d := range res.Findings {
			fmt.Fprintln(stdout, d.String())
		}
		if !res.Clean() {
			fmt.Fprintf(stdout, "arpanetlint: %d finding(s), %d load error(s)\n",
				len(res.Findings), len(res.Errors))
		}
	}
	if res.Clean() {
		return 0
	}
	return 1
}
