package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	arpanet "repro"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent re-executes itself for a repetition.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

const testSeed = 1987

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// A shrunken copy of every workload goes through the untraced pass: child
// processes, checks, equal digests across repetitions, the three
// end-to-end metrics.
func TestUntracedPassSmall(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var log strings.Builder
			p := measure(&log, w, testSeed, 0, true)
			res := p.result(&log)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d operations failed\n%s", res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(p.samples) != minReps {
				t.Errorf("a zero-second budget ran %d repetitions, want %d", len(p.samples), minReps)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("got %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			if c := p.samples[0].Counts; c["packets"] <= 0 {
				t.Errorf("no packets counted in the measured window: %v", c)
			}
		})
	}
}

// The digest must depend on the seed and on nothing else.
func TestDigestFollowsSeed(t *testing.T) {
	w := findWorkload("hier1k_dataplane")
	a := runRep(w, w.small, testSeed, 2, false)
	b := runRep(w, w.small, testSeed, 2, false)
	c := runRep(w, w.small, testSeed+1, 2, false)
	if a.Digest != b.Digest {
		t.Errorf("two repetitions on one seed: digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds %d and %d produced the same digest", testSeed, testSeed+1)
	}
}

// The traced run of every (shrunken) workload plus the micro-drivers emits
// exactly the declared per-layer names, with a well-formed span tree and a
// span file.
func TestTracedRunSmall(t *testing.T) {
	dir := t.TempDir()
	tr := &traceRun{out: io.Discard, res: result{Correct: true}, noise: startNoise(true)}
	micro := tr.micro(testSeed, true)
	for i := range workloads {
		w := &workloads[i]
		var log strings.Builder
		tr.out = &log
		m := tr.workload(w, testSeed, true, dir)
		if !tr.res.Correct || tr.res.Failed != 0 {
			t.Fatalf("%s: correct %v, %d failed\n%s", w.name, tr.res.Correct, tr.res.Failed, log.String())
		}
		for k, v := range micro {
			m[k] = v
		}
		for _, spec := range perLayer {
			if _, ok := m[spec.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, spec.Name)
			}
			delete(m, spec.Name)
		}
		for k := range m {
			t.Errorf("%s: emitted undeclared metric %s", w.name, k)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		if err := checkSpans(file.Spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		self := selfSeconds(file.Spans)
		for _, name := range []string{"rep", "topology.build", "run.warmup", "run.measured"} {
			if _, ok := self[name]; !ok {
				t.Errorf("%s: no %q span recorded", w.name, name)
			}
		}
		for name, s := range self {
			if s < 0 {
				t.Errorf("%s: span %q has self time %g", w.name, name, s)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "rep", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "engine.new", Parent: 0, StartNs: 10, EndNs: 30},
		{Name: "run.measured", Parent: 0, StartNs: 30, EndNs: 90},
		{Name: "engine.new", Parent: 2, StartNs: 40, EndNs: 50},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rep": 20e-9, "engine.new": 30e-9, "run.measured": 50e-9}
	got := selfSeconds(spans)
	for name, w := range want {
		if abs(got[name]-w) > 1e-15 {
			t.Errorf("self time of %s = %g, want %g", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	bad := append([]span(nil), spans...)
	bad[3].EndNs = 95 // past its parent's end
	if err := checkSpans(bad); err == nil {
		t.Error("a child outside its parent passed checkSpans")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes its spread from.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2.1, 2.4, 2.2, 2.9, 2.3}, 2.15, 2.65},
	} {
		q1, q3 := quartiles(tc.v)
		if abs(q1-tc.q1) > 1e-9 || abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// The Table 1 check only runs at study length, so the shrunken workload
// never reaches it; pin both verdicts here.
func TestTable1Shape(t *testing.T) {
	d := arpanet.Report{RoundTripDelayMs: 1300, UpdatesPerTrunkSec: 3.0, PathRatio: 1.19, BufferDrops: 50000}
	h := arpanet.Report{RoundTripDelayMs: 580, UpdatesPerTrunkSec: 1.85, PathRatio: 1.07, BufferDrops: 8000}
	if p := table1Shape(d, h); len(p) != 0 {
		t.Errorf("the paper's direction was reported as a problem: %v", p)
	}
	if p := table1Shape(h, d); len(p) != 4 {
		t.Errorf("the reversed direction raised %d problems, want 4: %v", len(p), p)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BENCHMARK.json and the tables in spec.go and workloads.go declare the
// same benchmark, within the limits the driver enforces.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json is out of step with spec.go; regenerate it with -spec\n got %+v\nwant %+v", file, want)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range file.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range file.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %g, but the largest is %g", setupBound, maxBound)
	}
	for _, m := range file.PerLayer {
		name(m.Name)
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(file.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
}
