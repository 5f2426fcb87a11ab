// Command bench is this repository's benchmark: four fixed simulation
// workloads, three gated end-to-end metrics, and a per-layer budget taken
// from outside the simulator by timing calls into its exported functions.
// See README.md in this directory.
//
//	go run -C bench repro/bench --workload table1_arpanet --seed 1987 --seconds 20 --trace 0
//	go run -C bench repro/bench --workload hier1k_adaptive --trace 1     # per-layer metrics + span file
//	go run -C bench repro/bench                                          # every workload, untraced
//	go run -C bench repro/bench -aa 20                                   # A/A: two interleaved sets of 10 seeds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parentMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1987, "seed every input is generated from")
		seconds = fs.Float64("seconds", runSeconds, "keep starting repetitions until this much wall time has passed (at least 3 run)")
		traced  = fs.Int("trace", 0, "1 = the traced run: per-layer metrics, span file, budget")
		aa      = fs.Int("aa", 0, "A/A check: this many passes (even), split alternately into two sets")
		spec    = fs.Bool("spec", false, "print BENCHMARK.json as spec.go declares it, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		js, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", js)
		return 0
	}
	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS parent %d / children 1, %s, cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	if *aa > 0 {
		if *aa%2 != 0 {
			fmt.Fprintln(os.Stderr, "bench: -aa needs an even number of passes")
			return 2
		}
		return runAA(out, ws, *aa, *seed, *seconds)
	}
	code := 0
	for _, w := range ws {
		var res result
		if *traced != 0 {
			res = tracedRun(out, w, *seed, false, "out")
		} else {
			res = measure(out, w, *seed, *seconds, false).result(out)
		}
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return code
}
