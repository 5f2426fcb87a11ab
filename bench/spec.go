package main

// The benchmark's declared names. BENCHMARK.json at the repository root
// lists the same workloads and metrics; TestSpecMatchesBenchmarkJSON keeps
// the two in step.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median a PR may lose
}

// endToEnd are the gated metrics, measured with tracing off as the median
// over a run's repetitions.
//
// The measured window's wall time is not among them. The driver accepts a
// gated metric only if ten runs of unchanged code keep their quartiles
// within the metric's bound, and no bound may exceed 25%; on the build box
// run_wall_s spreads 10-50% (README, "Steadiness"), with or without
// dividing by the calibration spin. It is measured, printed by every run
// and emitted by the traced run (runWall below); a claim about it rests on
// interleaved parent/change pairs. Engine speed is still gated at 25%
// through setup_s, whose warm-up runs the same engine as the window.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// runWall is the measured window: reported beside the end-to-end metrics by
// an untraced run, a per-layer metric (from the untraced base child) in a
// traced one.
var runWall = lower("run_wall_s", "s")

// spanNames are the layer-boundary spans whose self time a traced run
// reports as span.<name>_s.
var spanNames = []string{
	"topology.build", "traffic.build", "engine.new", "run.warmup",
	"run.measured", "audit", "report", "trace_text",
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayerWorkload are the per-layer metrics a traced run takes from the
// workload's own repetitions: public counters, allocator deltas, variant
// runs and span self times. A metric that does not apply to the workload
// being traced (shard.* on the ARPANET workloads, network.* on hier1k,
// paper.* anywhere but table1_arpanet) reads 0.
var perLayerWorkload = func() []metricSpec {
	m := []metricSpec{
		runWall,
		lower("sim.events", "count"),
		lower("sim.ns_per_event", "ns"),
		lower("network.events_per_pkt", "count"),
		lower("network.updates_per_trunk_s", "1/s"),
		higher("network.delivered_ratio", "ratio"),
		lower("shard.events_per_pkt", "count"),
		lower("shard.updates_originated", "count"),
		lower("shard.ctrl_copies_per_update", "count"),
		lower("shard.ctrl_copies_per_pkt", "count"),
		higher("shard.lookahead_ms", "ms"),
		lower("shard.barrier_overhead_pct", "%"),
		higher("shard.speedup_2", "x"),
		higher("shard.efficiency_2", "ratio"),
		lower("process.cpu_s_2", "s"),
		lower("go.allocs_per_pkt", "count"),
		lower("go.gc_cycles", "count"),
		lower("go.gc_pause_ms", "ms"),
		lower("go.heap_live_mb_after_setup", "MB"),
		lower("paper.delay_ratio", "ratio"),
		lower("paper.updates_ratio", "ratio"),
		lower("paper.path_ratio", "ratio"),
		lower("trace.overhead_pct", "%"),
	}
	for _, s := range spanNames {
		m = append(m, lower("span."+s+"_s", "s"))
	}
	return m
}()

// perLayerMicro are the per-layer metrics of the micro-drivers (micro.go),
// the same on every workload's traced run.
var perLayerMicro = []metricSpec{
	lower("sim.schedule_fire_ns", "ns"),
	lower("sim.churn1k_ns", "ns"),
	lower("sim.cancel_ns", "ns"),
	lower("sim.allocs_per_event", "count"),
	lower("node.queue_ns", "ns"),
	lower("node.pool_ns", "ns"),
	lower("spf.full_us.arpanet", "us"),
	lower("spf.full_us.hier1k", "us"),
	lower("spf.incr_us.arpanet", "us"),
	lower("spf.incr_us.hier1k", "us"),
	lower("spf.incr_touched.hier1k", "count"),
	lower("spf.incr_fallback_ratio.hier1k", "ratio"),
	lower("flooding.forward_links_ns", "ns"),
	lower("flooding.dedup_ns", "ns"),
	lower("flooding.wave_ms.hier1k", "ms"),
	lower("flooding.ns_per_copy.hier1k", "ns"),
	lower("core.hnm_update_ns", "ns"),
	lower("metric.dspf_update_ns", "ns"),
	lower("queueing.table_build_ms", "ms"),
	lower("queueing.lookup_ns", "ns"),
	lower("flowmodel.assign_us.arpanet", "us"),
	lower("flowmodel.reassign_us.arpanet", "us"),
	lower("scenario.parse_us", "us"),
	lower("network.audit_us.arpanet", "us"),
	lower("topology.hier1k_build_ms", "ms"),
	lower("shard.partition_ms.hier1k", "ms"),
	lower("shard.new_ms.hier1k", "ms"),
	lower("equilibrium.new_ms.arpanet", "ms"),
	lower("equilibrium.fig10_sweep_ms", "ms"),
	lower("trace.ring_record_ns", "ns"),
	lower("check.campaign_s", "s"),
	lower("check.spf_s", "s"),
	lower("check.metric_s", "s"),
	lower("check.flood_s", "s"),
	lower("check.scenario_s", "s"),
	lower("check.hybrid_s", "s"),
	lower("check.shard_diff_s", "s"),
	lower("check.shard_custody_s", "s"),
}

// perLayer are the ungated metrics every traced run prints. bench/README.md
// says which end-to-end metric on which workload each one should move.
var perLayer = append(append([]metricSpec(nil), perLayerWorkload...), perLayerMicro...)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerSpec is a per-layer metric as BENCHMARK.json lists it: no bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the wall-time budget the driver gives one run: room for the
// three repetitions every run makes, and little more. The gated medians
// gain nothing from more repetitions, and the shorter the driver's two sets
// of runs are, the less the host drifts between them (its speed moved by
// 35% within half an hour while this was written). Pass a larger --seconds
// for a steadier run_wall_s.
const runSeconds = 10

// benchmarkSpec renders the declarations above as BENCHMARK.json.
func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "repro/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadSpec{w.name, w.why})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerSpec{m.Name, m.Unit, m.Better})
	}
	return f
}
