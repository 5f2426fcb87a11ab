package scenario

// Golden-trace determinism tests: for a fixed seed, the simulator's full
// observable output — the final report, every checkpoint audit, and the
// byte-for-byte event trace — must never change unless the physics change.
// The goldens were committed from the pre-pooling implementation, so they
// prove that recycling events and packets through free-lists altered
// nothing: a recycled object that leaked state into a later packet would
// show up here as a diverging trace long before it corrupted a statistic.
//
// Regenerate (only after an intentional behaviour change) with:
//
//	go test ./internal/scenario -run TestGoldenTrace -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

type goldenCase struct {
	name string
	cfg  Config
	sc   *Scenario
}

// goldenCases covers the three packet populations the pooling change
// touches: SPF user+update traffic under failures, the 1969 distance-vector
// exchange, and multipath routing.
func goldenCases() []goldenCase {
	var cases []goldenCase

	// ARPANET under the revised metric with a failure, a repair and a
	// surge: exercises source fire, flooding copies, originate, outage
	// flush and every drop class.
	g := topology.Arpanet()
	l := g.Link(g.Out(0)[0])
	a, b := g.Node(l.From).Name, g.Node(l.To).Name
	sc := NewScenario("arpanet-hnspf-failure", 100*sim.Second)
	sc.CheckEvery = 25 * sim.Second
	sc.DownAt(40*sim.Second, a, b)
	sc.SurgeAt(55*sim.Second, 1.3)
	sc.UpAt(70*sim.Second, a, b)
	cases = append(cases, goldenCase{
		name: "arpanet-hnspf-failure",
		cfg: Config{
			Graph:  g,
			Matrix: traffic.Gravity(g, topology.ArpanetWeights(), 280_000),
			Metric: node.HNSPF,
			Seed:   1987,
			Warmup: 20 * sim.Second,
		},
		sc: sc,
	})

	// 1969 distance-vector mode: the periodic vector packets are pooled
	// too, and their payload slices outlive the packet that carried them.
	rg := topology.Ring(5, topology.T56)
	rsc := NewScenario("ring-bf1969", 150*sim.Second)
	rsc.CheckEvery = 50 * sim.Second
	rsc.DownAt(60*sim.Second, rg.Node(0).Name, rg.Node(1).Name)
	rsc.UpAt(100*sim.Second, rg.Node(0).Name, rg.Node(1).Name)
	cases = append(cases, goldenCase{
		name: "ring-bf1969",
		cfg: Config{
			Graph:  rg,
			Matrix: traffic.Uniform(rg, 40_000),
			Metric: node.BF1969,
			Seed:   7,
			Warmup: 20 * sim.Second,
		},
		sc: rsc,
	})

	// Multipath forwarding: pins the first-hop DAGs over the shared table's
	// trees, and the single-hop forwarding they yield, under a surge. On this ring no
	// destination has two equal-cost first hops, so the per-packet random
	// choice among several is never drawn here; the root package's
	// TestDeterministicSimulation multipath row (a 2×2 grid) pins that draw.
	mg := topology.Ring(5, topology.T56)
	msc := NewScenario("ring-multipath", 150*sim.Second)
	msc.CheckEvery = 50 * sim.Second
	msc.SurgeAt(70*sim.Second, 1.5)
	cases = append(cases, goldenCase{
		name: "ring-multipath",
		cfg: Config{
			Graph:     mg,
			Matrix:    traffic.Uniform(mg, 60_000),
			Metric:    node.HNSPF,
			Seed:      42,
			Warmup:    20 * sim.Second,
			Multipath: true,
		},
		sc: msc,
	})
	return cases
}

// renderGolden serializes everything a run observably produced.
func renderGolden(res Result, ring *trace.Ring) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "report %+v\n", res.Report)
	for _, cp := range res.Checkpoints {
		fmt.Fprintf(&b, "checkpoint %+v\n", cp)
	}
	fmt.Fprintf(&b, "violations %d\n", len(res.Violations))
	fmt.Fprintf(&b, "trace-overwritten %d\n", ring.Overwritten())
	b.WriteString(ring.Dump())
	return b.Bytes()
}

// goldenRuns is how often TestGoldenTrace renders each case. Go randomises
// map iteration per range statement and seeds the global math/rand stream
// per process, so a wall clock, a global draw or a map order that reaches
// the output makes two renders in one process differ.
const goldenRuns = 3

func TestGoldenTrace(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Renders must agree with each other before the file is asked:
			// a failure then says "nondeterministic" apart from "behaviour
			// changed".
			var got []byte
			for run := 1; run <= goldenRuns; run++ {
				ring := trace.NewRing(1 << 17)
				cfg := tc.cfg
				cfg.Trace = ring
				res, err := Run(cfg, tc.sc)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) != 0 {
					t.Fatalf("golden scenario violated invariants: %+v", res.Violations)
				}
				out := renderGolden(res, ring)
				if run == 1 {
					got = out
				} else if !bytes.Equal(out, got) {
					t.Fatalf("nondeterministic: run %d differs from run 1 at %s", run, firstDiff(got, out))
				}
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("behaviour changed: output diverged from the committed golden at %s",
					firstDiff(want, got))
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure; want
// is the reference (the golden file, or run 1).
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}
