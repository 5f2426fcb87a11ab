package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// childEnv carries a childSpec to a re-exec'd copy of this binary. Every
// repetition runs in its own child so peak RSS is per workload and no rep
// inherits another's heap, allocator free lists, or GC pacing.
const childEnv = "ARPANET_BENCH_CHILD"

type childSpec struct {
	Workload string `json:"workload,omitempty"`
	Micro    bool   `json:"micro,omitempty"` // run the micro-drivers instead of a workload
	Seed     int64  `json:"seed"`
	Small    bool   `json:"small,omitempty"` // the tests' shrunken size
	Traced   bool   `json:"traced,omitempty"`
	Shards   int    `json:"shards,omitempty"`
}

// childMain runs one repetition (or the micro-drivers) and prints its
// result as one JSON line.
func childMain(specJSON string, out io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: bad spec: %v\n", err)
		return 2
	}
	var v any
	if spec.Micro {
		v = runMicro(spec.Seed, spec.Small)
	} else {
		w := findWorkload(spec.Workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench child: unknown workload %q\n", spec.Workload)
			return 2
		}
		sz := w.full
		if spec.Small {
			sz = w.small
		}
		v = runRep(w, sz, spec.Seed, spec.Shards, spec.Traced)
	}
	if err := json.NewEncoder(out).Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	return 0
}

// child is one finished child process.
type child struct {
	stdout []byte
	rssMB  float64 // ru_maxrss
	cpuS   float64 // user + system
}

// spawn re-executes this binary as a child with the given GOMAXPROCS and
// waits for it.
func spawn(spec childSpec, procs int) (child, error) {
	exe, err := os.Executable()
	if err != nil {
		return child{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return child{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return child{}, fmt.Errorf("child %s: %w", js, err)
	}
	c := child{stdout: stdout}
	c.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return c, nil
}

// sample is one repetition as the parent sees it.
type sample struct {
	repResult
	rssMB float64
	cpuS  float64
}

func spawnRep(spec childSpec, procs int) (sample, error) {
	c, err := spawn(spec, procs)
	if err != nil {
		return sample{}, err
	}
	s := sample{rssMB: c.rssMB, cpuS: c.cpuS}
	if err := json.Unmarshal(c.stdout, &s.repResult); err != nil {
		return sample{}, fmt.Errorf("child %s printed no result: %w", spec.Workload, err)
	}
	return s, nil
}

// hostNoise is the record kept beside a pass: the calibration spin before
// and after every child and the share of CPU time the hypervisor stole.
type hostNoise struct {
	iters       int
	calibNs     []float64
	total0, st0 uint64
	stealOK     bool
}

// startNoise opens the record; the tests' shrunken passes spin a hundredth
// as long.
func startNoise(small bool) *hostNoise {
	h := &hostNoise{iters: calibIters}
	if small {
		h.iters /= 100
	}
	h.total0, h.st0, h.stealOK = cpuTicks()
	h.calibrate()
	return h
}

func (h *hostNoise) calibrate() { h.calibNs = append(h.calibNs, calibrate(h.iters)) }

func (h *hostNoise) print(out io.Writer) {
	lo, hi := minMax(h.calibNs)
	fmt.Fprintf(out, "  host.calib_ns   median %.4f  min %.4f  max %.4f  n %d\n", median(h.calibNs), lo, hi, len(h.calibNs))
	if lo > 0 && hi/lo > 1.10 {
		fmt.Fprintf(out, "  WARNING: calibration drifted %.0f%% within this pass; the host changed phase\n", (hi/lo-1)*100)
	}
	if total, st, ok := cpuTicks(); ok && h.stealOK && total > h.total0 {
		fmt.Fprintf(out, "  host.steal_pct  %.2f\n", 100*float64(st-h.st0)/float64(total-h.total0))
	}
}

// Repetition limits of one untraced run.
const (
	minReps = 3
	maxReps = 15
)

// pass is one untraced run of one workload: at least minReps repetitions,
// more while the wall-time budget lasts, every one a GOMAXPROCS=1 child on
// the same seed.
type pass struct {
	samples []sample
	err     error
}

func measure(out io.Writer, w *workload, seed int64, seconds float64, small bool) pass {
	var p pass
	fmt.Fprintf(out, "workload %s seed %d\n", w.name, seed)
	noise := startNoise(small)
	start := time.Now()
	for len(p.samples) < maxReps && (len(p.samples) < minReps || time.Since(start).Seconds() < seconds) {
		s, err := spawnRep(childSpec{Workload: w.name, Seed: seed, Small: small, Shards: 2}, 1)
		if err != nil {
			p.err = err
			break
		}
		noise.calibrate()
		p.samples = append(p.samples, s)
		fmt.Fprintf(out, "  rep %2d  setup_s %.4f  run_wall_s %.4f  peak_rss_mb %.2f  ops %d/%d  digest %.12s\n",
			len(p.samples), s.SetupS, s.RunWallS, s.rssMB, s.Ops-s.Failed, s.Ops, s.Digest)
	}
	noise.print(out)
	return p
}

// values returns the named metric of every repetition: an end-to-end one,
// or the measured window's run_wall_s, which is reported but not gated.
func (p pass) values(metric string) []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		switch metric {
		case "setup_s":
			out[i] = s.SetupS
		case "run_wall_s":
			out[i] = s.RunWallS
		case "peak_rss_mb":
			out[i] = s.rssMB
		}
	}
	return out
}

// result reduces the pass to the driver's line: each metric's median over
// the repetitions, operations summed, correct only when nothing failed and
// every repetition produced the same digest.
func (p pass) result(out io.Writer) result {
	res := result{Correct: p.err == nil && len(p.samples) >= minReps, Metrics: map[string]metricValue{}}
	if p.err != nil {
		fmt.Fprintf(out, "  FAILED: %v\n", p.err)
		res.Attempted, res.Failed = 1, 1
	}
	for _, s := range p.samples {
		res.Attempted += s.Ops
		res.Failed += s.Failed
		for _, f := range s.Failures {
			fmt.Fprintf(out, "  FAILED: %s\n", f)
		}
		if s.Digest != p.samples[0].Digest {
			res.Correct = false
			fmt.Fprintf(out, "  FAILED: digest %s differs from the first repetition's %s\n", s.Digest, p.samples[0].Digest)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{Value: p.summary(out, m.Name, m.Unit), Unit: m.Unit}
	}
	wall := p.summary(out, runWall.Name, runWall.Unit+" (not gated)")
	if len(p.samples) > 0 {
		c := p.samples[0].Counts
		fmt.Fprintf(out, "  measured window: %.0f offered packets", c["packets"])
		if ev := c["events"]; ev > 0 {
			fmt.Fprintf(out, ", %.0f events, %.1f ns/event", ev, wall*1e9/ev)
		}
		fmt.Fprintf(out, ", %.0f packets/s\n", c["packets"]/wall)
	}
	return res
}

// summary prints a metric's median, min, max and n over the repetitions
// and returns the median.
func (p pass) summary(out io.Writer, metric, unit string) float64 {
	v := p.values(metric)
	lo, hi := minMax(v)
	fmt.Fprintf(out, "  %-12s median %.4f %s  min %.4f  max %.4f  n %d\n", metric, median(v), unit, lo, hi, len(v))
	return median(v)
}

// ---- small statistics -----------------------------------------------------

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	return s[0], s[len(s)-1]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the driver uses for its spread. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 where the base is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
