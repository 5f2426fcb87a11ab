package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// traceRun is the per-layer run of one workload. It never feeds an
// end-to-end number: those come from the untraced pass. Its children, all
// on the same seed:
//
//	base    untraced, Shards 2, GOMAXPROCS 1   the reference for trace.overhead_pct
//	traced  traced,   Shards 2, GOMAXPROCS 1   spans, counters, allocator deltas
//	one     traced,   Shards 1, GOMAXPROCS 1   hier1k only: barrier overhead, digest equality
//	par     traced,   Shards 2, GOMAXPROCS 2   hier1k only: the multi-core numbers
//	micro   the micro-drivers
//
// Each variant runs once, so a difference of a few percent between two of
// them is inside the host's noise; the README says how to read them.
type traceRun struct {
	out   io.Writer
	res   result
	noise *hostNoise
}

func (t *traceRun) fail(format string, args ...any) {
	t.res.Correct = false
	fmt.Fprintf(t.out, "  FAILED: "+format+"\n", args...)
}

func tracedRun(out io.Writer, w *workload, seed int64, small bool, outDir string) result {
	t := &traceRun{out: out, res: result{Correct: true, Metrics: map[string]metricValue{}}, noise: startNoise(small)}
	fmt.Fprintf(out, "traced run: workload %s seed %d\n", w.name, seed)
	m := t.workload(w, seed, small, outDir)
	for k, v := range t.micro(seed, small) {
		m[k] = v
	}
	t.noise.print(out)
	for _, spec := range perLayer {
		v, ok := m[spec.Name]
		if !ok {
			t.fail("per-layer metric %s was not measured", spec.Name)
		}
		t.res.Metrics[spec.Name] = metricValue{Value: v, Unit: spec.Unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", spec.Name, v, spec.Unit)
	}
	return t.res
}

// rep runs one child repetition of w and books its operations.
func (t *traceRun) rep(label string, spec childSpec, procs int) sample {
	s, err := spawnRep(spec, procs)
	t.noise.calibrate()
	if err != nil {
		t.res.Attempted++
		t.res.Failed++
		t.fail("%s: %v", label, err)
		return sample{}
	}
	t.res.Attempted += s.Ops
	t.res.Failed += s.Failed
	for _, f := range s.Failures {
		t.fail("%s: %s", label, f)
	}
	fmt.Fprintf(t.out, "  %-6s setup_s %.4f  run_wall_s %.4f  cpu_s %.3f  peak_rss_mb %.2f  digest %.12s\n",
		label, s.SetupS, s.RunWallS, s.cpuS, s.rssMB, s.Digest)
	return s
}

// workload runs the workload's children and returns the per-layer metrics
// that come from them, writing the traced repetition's spans to outDir.
func (t *traceRun) workload(w *workload, seed int64, small bool, outDir string) map[string]float64 {
	spec := childSpec{Workload: w.name, Seed: seed, Small: small, Shards: 2}
	base := t.rep("base", spec, 1)
	spec.Traced = true
	tr := t.rep("traced", spec, 1)
	sharded := strings.HasPrefix(w.name, "hier1k")
	var one, par sample
	procs := min(2, runtime.NumCPU())
	if sharded {
		par = t.rep("par", spec, procs)
		spec.Shards = 1
		one = t.rep("one", spec, 1)
		if one.Digest != tr.Digest {
			t.fail("Shards:1 digest %s differs from the Shards:2 digest %s", one.Digest, tr.Digest)
		}
		if par.Digest != tr.Digest {
			t.fail("GOMAXPROCS=%d digest %s differs from the GOMAXPROCS=1 digest %s", procs, par.Digest, tr.Digest)
		}
	}

	c := tr.Counts
	m := map[string]float64{}
	for _, spec := range perLayerWorkload {
		m[spec.Name] = 0 // a metric that does not apply to this workload reads 0
	}
	m[runWall.Name] = base.RunWallS
	m["sim.events"] = c["events"]
	m["sim.ns_per_event"] = ratio(tr.RunWallS*1e9, c["events"])
	if sharded {
		m["shard.events_per_pkt"] = ratio(c["events"], c["packets"])
		m["shard.updates_originated"] = c["originated"]
		m["shard.ctrl_copies_per_update"] = ratio(c["ctrl_copies"], c["originated"])
		m["shard.ctrl_copies_per_pkt"] = ratio(c["ctrl_copies"], c["packets"])
		m["shard.lookahead_ms"] = c["lookahead_ms"]
		m["shard.barrier_overhead_pct"] = 100 * (ratio(tr.RunWallS, one.RunWallS) - 1)
		m["shard.speedup_2"] = ratio(tr.RunWallS, par.RunWallS)
		m["shard.efficiency_2"] = m["shard.speedup_2"] / float64(procs)
		m["process.cpu_s_2"] = par.cpuS
	} else {
		m["network.events_per_pkt"] = ratio(c["events"], c["packets"])
		m["network.updates_per_trunk_s"] = ratio(c["updates_per_trunk_s"], c["runs"])
		m["network.delivered_ratio"] = ratio(c["delivered_ratio"], c["runs"])
	}
	m["go.allocs_per_pkt"] = ratio(c["mallocs"], c["packets"])
	m["go.gc_cycles"] = c["gc_cycles"]
	m["go.gc_pause_ms"] = c["gc_pause_ms"]
	m["go.heap_live_mb_after_setup"] = c["heap_live_mb"]
	for _, k := range []string{"paper.delay_ratio", "paper.updates_ratio", "paper.path_ratio"} {
		m[k] = c[k]
	}
	m["trace.overhead_pct"] = 100 * (ratio(tr.RunWallS, base.RunWallS) - 1)
	if err := checkSpans(tr.Spans); err != nil {
		t.fail("span tree: %v", err)
	}
	self := selfSeconds(tr.Spans)
	for _, s := range spanNames {
		m["span."+s+"_s"] = self[s]
	}
	printBudget(t.out, w, base, tr, sharded)
	if err := writeSpans(outDir, w.name, tr); err != nil {
		t.fail("writing the span file: %v", err)
	}
	return m
}

// micro runs the micro-drivers in a child and returns their metrics. The
// whole set is one operation: failed when any driver's own check failed.
func (t *traceRun) micro(seed int64, small bool) map[string]float64 {
	t.res.Attempted++
	var micro microResult
	c, err := spawn(childSpec{Micro: true, Seed: seed, Small: small}, 1)
	if err != nil {
		micro.Failures = []string{err.Error()}
	} else if err := json.Unmarshal(c.stdout, &micro); err != nil {
		micro.Failures = []string{fmt.Sprintf("printed no result: %v", err)}
	}
	t.noise.calibrate()
	if len(micro.Failures) > 0 {
		t.res.Failed++
	}
	for _, f := range micro.Failures {
		t.fail("micro-drivers: %s", f)
	}
	return micro.Metrics
}

// printBudget reconstructs the untraced run_wall_s from the traced
// repetition's event count and cost per event, and says what the events
// were spent on as far as the public ledgers tell.
func printBudget(out io.Writer, w *workload, base, tr sample, sharded bool) {
	c := tr.Counts
	ev := c["events"]
	if ev == 0 || base.RunWallS == 0 {
		return
	}
	nsPerEvent := tr.RunWallS * 1e9 / ev
	rebuilt := ev * nsPerEvent / 1e9
	fmt.Fprintf(out, "budget %s: %.0f events x %.1f ns/event = %.4f s; untraced run_wall_s %.4f s (%+.1f%%)\n",
		w.name, ev, nsPerEvent, rebuilt, base.RunWallS, 100*(rebuilt/base.RunWallS-1))
	if sharded {
		// One trunk traversal costs the same kernel events whether the
		// packet is a user packet or an update copy, so the ledgers' two
		// populations split the events in proportion to their sizes.
		all := c["packets"] + c["ctrl_copies"]
		fmt.Fprintf(out, "  %.0f user packets + %.0f update copies: %.2f events each; update copies are %.1f%% of them\n",
			c["packets"], c["ctrl_copies"], ratio(ev, all), 100*ratio(c["ctrl_copies"], all))
	} else {
		fmt.Fprintf(out, "  %.0f offered packets: %.2f events per packet, routing updates included\n",
			c["packets"], ratio(ev, c["packets"]))
	}
}

// writeSpans writes the traced repetition's spans and counts to
// <dir>/trace-<workload>.json.
func writeSpans(dir, name string, tr sample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Counts   map[string]float64 `json:"counts"`
		Spans    []span             `json:"spans"`
	}{name, tr.Counts, tr.Spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), js, 0o644)
}
