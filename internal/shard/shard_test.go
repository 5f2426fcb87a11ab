package shard

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	return topology.Hierarchical(4, 8, 11)
}

func testConfig(g *topology.Graph, shards int) Config {
	return Config{
		Graph:         g,
		Shards:        shards,
		Seed:          99,
		PktRate:       2.0,
		Dests:         3,
		MeasurePeriod: 2 * sim.Second,
		MeasureSample: 4,
		TraceDrops:    true,
	}
}

func TestPartition(t *testing.T) {
	g := testGraph(t)
	n := g.NumNodes()
	for _, shards := range []int{1, 2, 3, 4, 7} {
		part := Partition(g, shards)
		if len(part) != n {
			t.Fatalf("shards=%d: partition covers %d nodes, want %d", shards, len(part), n)
		}
		count := make([]int, shards)
		for v, p := range part {
			if p < 0 || p >= shards {
				t.Fatalf("shards=%d: node %d assigned to %d", shards, v, p)
			}
			count[p]++
		}
		lo, hi := n, 0
		for _, c := range count {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if lo == 0 {
			t.Errorf("shards=%d: empty shard (sizes %v)", shards, count)
		}
		if hi-lo > (n+shards-1)/shards {
			t.Errorf("shards=%d: imbalanced sizes %v", shards, count)
		}
		// Determinism.
		again := Partition(g, shards)
		for v := range part {
			if part[v] != again[v] {
				t.Fatalf("shards=%d: partition is not deterministic", shards)
			}
		}
	}
}

// On a hierarchical graph the partitioner should cut only backbone trunks,
// keeping the conservative lookahead at the backbone's >= 8 ms floor.
func TestCutLookaheadHierarchical(t *testing.T) {
	g := topology.Hierarchical(8, 16, 3)
	part := Partition(g, 4)
	la, found := CutLookahead(g, part)
	if !found {
		t.Fatal("4-way partition of a connected graph cut no links")
	}
	if la < sim.FromSeconds(0.008) {
		t.Errorf("lookahead %v, want >= 8ms: partitioner cut an intra-region trunk", la)
	}
	if _, found := CutLookahead(g, Partition(g, 1)); found {
		t.Error("single shard should cut nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	g := testGraph(t)
	good := testConfig(g, 2)
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	lone := topology.New()
	lone.AddNode("ALONE")
	bad := []func(*Config){
		func(c *Config) { c.Graph = nil },
		func(c *Config) { c.Shards = 0 },
		func(c *Config) { c.Shards = g.NumNodes() + 1 },
		func(c *Config) { c.PktRate = 0 },
		func(c *Config) { c.PktRate = math.NaN() },  // New would panic converting its gaps to ticks
		func(c *Config) { c.PktRate = math.Inf(1) }, // one packet every tick
		func(c *Config) { c.Dests = 0 },
		func(c *Config) { c.Metric = node.BF1969 },
		func(c *Config) { c.Adaptive, c.Faults = true, []Fault{{Trunk: g.NumTrunks(), At: sim.Second}} },
		func(c *Config) { c.Adaptive, c.Faults = true, []Fault{{Trunk: 0, At: 0}} },
		func(c *Config) { c.Graph, c.Shards = lone, 1 }, // its first source event would divide by len(dests) == 0
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config fails Validate: %v", err)
	}
	for i, mutate := range bad {
		cfg := testConfig(g, 2)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		// Only the empty destination set needs New's draw to be seen.
		if err := cfg.Validate(); (err == nil) != (i == len(bad)-1) {
			t.Errorf("bad config %d: Validate = %v", i, err)
		}
	}
	// A negative value has no meaning to these four, whose zero is a default:
	// each is refused by name, with what it accepts, never read as something
	// else.
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"QueueLimit", func(c *Config) { c.QueueLimit = -1 }},
		{"DestRadius", func(c *Config) { c.DestRadius = -1 }},
		{"MeasureSample", func(c *Config) { c.MeasureSample = -4 }},
		{"MeasurePeriod", func(c *Config) { c.MeasurePeriod = -sim.Second }},
	} {
		cfg := testConfig(g, 2)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field+" must be >= 0") {
			t.Errorf("negative %s: Validate = %v, want it refused by name", tc.field, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("negative %s: New accepted it", tc.field)
		}
	}
	// A PSN hears of a failure only through a flooded update, which the
	// static plane never sends: a fault script needs Adaptive, and the
	// refusal names both fields.
	static := testConfig(g, 2)
	static.Faults = []Fault{{Trunk: 0, At: sim.Second}}
	for _, err := range []error{static.Validate(), func() error { _, err := New(static); return err }()} {
		if err == nil || !strings.Contains(err.Error(), "Faults") || !strings.Contains(err.Error(), "Adaptive") {
			t.Errorf("static plane with a fault script: %v, want it refused naming Faults and Adaptive", err)
		}
	}
	static.Adaptive = true
	if err := static.Validate(); err != nil {
		t.Errorf("adaptive plane with a fault script: %v", err)
	}
	if _, err := New(Config{Graph: lone, Shards: 1, PktRate: 5, Dests: 1}); err == nil || !strings.Contains(err.Error(), "ALONE") {
		t.Errorf("one-node graph: error %v, want one naming the node with nowhere to send", err)
	}
	// The static plane's heap key holds 20 bits of node ID: one node more
	// would alias two keys and return a wrong table, so New refuses the count
	// (checked on the count alone — no million-node graph here).
	for _, tc := range []struct {
		nodes    int
		adaptive bool
		ok       bool
	}{
		{MaxStaticNodes, false, true},
		{MaxStaticNodes + 1, false, false},
		{MaxStaticNodes + 1, true, true},
	} {
		if err := staticPlaneFits(tc.nodes, tc.adaptive); (err == nil) != tc.ok {
			t.Errorf("staticPlaneFits(%d, adaptive %v) = %v", tc.nodes, tc.adaptive, err)
		}
	}
}

// run builds and runs one simulation to until, auditing at the end.
func run(t *testing.T, cfg Config, until sim.Time) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Run(until)
	if err := s.Audit(); err != nil {
		t.Fatalf("audit after run: %v", err)
	}
	return s
}

// The tentpole property: for any shard count, the merged trace and the
// report are byte-identical and the composed ledgers agree — here on the
// static plane, which has no faults; TestAdaptiveDeterminismAcrossShardCounts
// adds fault transitions and floods.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(g, 1)
	until := 10 * sim.Second

	ref := run(t, cfg, until)
	refTrace := ref.TraceText()
	refReport := ref.Report().String()
	refCons := ref.Report().Conservation
	if generated(ref) == 0 || ref.Report().Conservation.Delivered == 0 {
		t.Fatal("reference run moved no traffic")
	}
	if !strings.Contains(refTrace, "meas") {
		t.Fatal("reference trace records no measurements")
	}

	for _, shards := range []int{2, 3, 4} {
		c := cfg
		c.Shards = shards
		s := run(t, c, until)
		var exported int64
		for _, l := range s.Ledgers() {
			exported += l.Exported
		}
		if exported == 0 {
			t.Fatalf("shards=%d: no cross-shard traffic; the test exercises nothing", shards)
		}
		if got := s.TraceText(); got != refTrace {
			t.Fatalf("shards=%d: trace differs from single-kernel run (%d vs %d bytes): %s",
				shards, len(got), len(refTrace), firstDiff(got, refTrace))
		}
		if got := s.Report().String(); got != refReport {
			t.Errorf("shards=%d: report differs:\n%s\nwant:\n%s", shards, got, refReport)
		}
		if got := s.Report().Conservation; got != refCons {
			t.Errorf("shards=%d: composed conservation %+v, want %+v", shards, got, refCons)
		}
	}
}

// Resumed runs must land in the same state as one continuous run.
func TestRunResume(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig(g, 3)
	one := run(t, cfg, 6*sim.Second)

	split, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, at := range []sim.Time{sim.Second, 2500 * sim.Millisecond, 6 * sim.Second} {
		split.Run(at)
		if err := split.Audit(); err != nil {
			t.Fatalf("audit at %v: %v", at, err)
		}
	}
	if got, want := split.TraceText(), one.TraceText(); got != want {
		t.Fatalf("resumed run trace differs: %s", firstDiff(got, want))
	}
	if got, want := split.Report().String(), one.Report().String(); got != want {
		t.Errorf("resumed run report differs:\n%s\nwant:\n%s", got, want)
	}
}

// A vanishing packet rate means a mean gap longer than sim.Time can hold.
// It must read as "never": the gap used to convert to MinInt64 and be
// floored to one tick, so every node offered a packet per microsecond.
func TestVanishingRateGeneratesNothing(t *testing.T) {
	cfg := testConfig(testGraph(t), 2)
	cfg.PktRate = 1e-30
	s := run(t, cfg, sim.Millisecond)
	if got := generated(s); got != 0 {
		t.Errorf("generated %d packets in 1 ms at 1e-30 pkts/s/node, want 0", got)
	}
}

// Saturate tiny queues so buffer drops appear, and check the books balance.
func TestLedgerUnderCongestion(t *testing.T) {
	g := topology.Hierarchical(2, 6, 5)
	cfg := Config{
		Graph:      g,
		Shards:     2,
		Seed:       1,
		PktRate:    200,
		Dests:      4,
		QueueLimit: 2,
		TraceDrops: false,
	}
	s := run(t, cfg, 4*sim.Second)
	r := s.Report()
	if r.BufferDrops == 0 {
		t.Error("200 pkts/s/node into 2-packet queues dropped nothing")
	}
	if r.Conservation.Delivered == 0 {
		t.Error("nothing delivered")
	}
	if !r.Conservation.Balanced() {
		t.Errorf("ledger does not balance: %+v", r.Conservation)
	}
}

// A completion event pending on an idle link is the double-transmitter bug
// in waiting — it would complete a transmission that is not under way, or
// cut a later one short. Audit must name the link; and a completion that
// does fire on an idle link must be ignored, not dereferenced.
func TestAuditNamesDoubleTransmitter(t *testing.T) {
	s := run(t, testConfig(testGraph(t), 2), sim.Second)
	var ls *llink
	for _, l := range s.linkAt {
		if sending(&l.Trunk) == nil {
			ls = l
			break
		}
	}
	if ls == nil {
		t.Fatal("no idle link after 1 s at 2 pkts/s/node")
	}
	sh := s.nodeAt[ls.l.From].sh
	sh.txDone(sh.kernel.Now(), ls) // stale: nothing is on the transmitter
	if err := s.Audit(); err != nil {
		t.Fatalf("after a stale completion: %v", err)
	}
	ls.Started(sh.kernel.ScheduleCall(sim.Millisecond, sh.txDoneCall, ls))
	want := "link " + itoa(int(ls.l.ID)) + " ("
	if err := s.Audit(); err == nil || !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), "double transmitter") {
		t.Fatalf("Audit = %v, want the double transmitter named on %q", err, want)
	}
}

// backboneTrunks returns the trunks joining different regions of a
// Hierarchical graph, by trunk index.
func backboneTrunks(g *topology.Graph) []int {
	region := func(n topology.NodeID) string {
		name := g.Node(n).Name
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				return name[:i]
			}
		}
		return name
	}
	var out []int
	for tr := 0; tr < g.NumTrunks(); tr++ {
		l := g.Link(topology.LinkID(2 * tr))
		if region(l.From) != region(l.To) {
			out = append(out, tr)
		}
	}
	return out
}

// The barrier counters are a function of the configuration, the partition and
// Run's deadlines: two runs agree, at one OS thread or two; every wire
// delivered is some shard's import; and the busiest shard's events lie
// between an even split and all of them.
func TestBarrierStats(t *testing.T) {
	g := testGraph(t)
	cfg := adaptiveConfig(g, 3)
	cfg.Faults = []Fault{{Trunk: backboneTrunks(g)[0], At: 2 * sim.Second}}
	stats := func(procs int) BarrierStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := run(t, cfg, 3*sim.Second)
		s.Run(5 * sim.Second)
		st := s.BarrierStats()
		var imported int64
		for _, l := range s.Ledgers() {
			imported += l.Imported + l.CtrlImported
		}
		if st.WiresDelivered != imported || imported == 0 {
			t.Errorf("GOMAXPROCS=%d: %d wires delivered, ledgers imported %d", procs, st.WiresDelivered, imported)
		}
		if st.EndedByLookahead == 0 || st.EndedByLookahead >= st.Windows {
			t.Errorf("GOMAXPROCS=%d: %+v: want windows both cut by the lookahead and run to a deadline", procs, st)
		}
		checkWindowCounters(t, s)
		return st
	}
	want := stats(1)
	t.Logf("%d windows (%d by lookahead), %d wires, %d critical events",
		want.Windows, want.EndedByLookahead, want.WiresDelivered, want.CriticalEvents)
	for _, procs := range []int{1, 2} {
		if got := stats(procs); got != want {
			t.Errorf("GOMAXPROCS=%d: %+v, first run %+v", procs, got, want)
		}
	}
	one := run(t, testConfig(g, 1), sim.Second)
	if st := one.BarrierStats(); st.EndedByLookahead != 0 || st.WiresDelivered != 0 || st.Windows == 0 ||
		st.CriticalEvents != int64(one.Fired()) {
		t.Errorf("one shard cuts nothing and waits for every event, yet %+v after %d events", st, one.Fired())
	}
	checkWindowCounters(t, one)
}

// checkWindowCounters holds the critical events of s between Fired/Shards (an
// even split) and Fired (one shard fired everything).
func checkWindowCounters(t *testing.T, s *Sim) {
	t.Helper()
	st := s.BarrierStats()
	if fired := int64(s.Fired()); st.CriticalEvents > fired || st.CriticalEvents*int64(len(s.shards)) < fired {
		t.Errorf("%d shards: %d critical events for %d fired", len(s.shards), st.CriticalEvents, fired)
	}
}

// The benchmark's hier1k_dataplane configuration holds about 1,300 pending
// events a shard, and each shard's calendar is sized to them: 32,768 buckets
// after one retune, where sizing to their span kept 65,536. KernelStats is
// the shards' sum.
func TestKernelGeometryDataplane(t *testing.T) {
	g := topology.Hierarchical(32, 32, 1987)
	s := run(t, Config{Graph: g, Shards: 2, Seed: 1987, PktRate: 50, Dests: 4, DestRadius: 1}, 5*sim.Second)
	var sum sim.Stats
	for i, sh := range s.shards {
		st := sh.kernel.Stats()
		t.Logf("shard %d: %+v, %d pending", i, st, sh.kernel.Pending())
		if st.Buckets > 32768 || st.Retunes > 2 {
			t.Errorf("shard %d: %d buckets and %d retunes after 5 s, want <= 32768 and <= 2", i, st.Buckets, st.Retunes)
		}
		sum.Fired += st.Fired
		sum.Buckets += st.Buckets
		sum.Retunes += st.Retunes
		sum.LadderPops += st.LadderPops
		sum.Slots += st.Slots
	}
	if k := s.KernelStats(); k.Fired != sum.Fired || k.Fired != s.Fired() || k.Buckets != sum.Buckets ||
		k.Retunes != sum.Retunes || k.LadderPops != sum.LadderPops || k.Slots != sum.Slots {
		t.Errorf("KernelStats() = %+v, the shards sum to %+v", k, sum)
	}
}

// Run's workers live exactly as long as the call: afterwards the goroutine
// count is no higher than before, at any shard count and GOMAXPROCS, and a Sim
// run to a and then to b ends where one run straight to b does.
func TestRunLeavesNoGoroutines(t *testing.T) {
	g := testGraph(t)
	const a, b = 1500 * sim.Millisecond, 3 * sim.Second
	for _, procs := range []int{1, 2} {
		for _, shards := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				split, err := New(testConfig(g, shards))
				if err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				for _, until := range []sim.Time{a, b} {
					split.Run(until)
					if n := settledGoroutines(before); n > before {
						t.Errorf("GOMAXPROCS=%d, %d shards: %d goroutines after Run(%v), %d before", procs, shards, n, until, before)
					}
				}
				one := run(t, testConfig(g, shards), b)
				if got, want := split.TraceText(), one.TraceText(); got != want {
					t.Errorf("GOMAXPROCS=%d, %d shards: Run(a); Run(b) trace differs from Run(b): %s", procs, shards, firstDiff(got, want))
				}
				if got, want := split.Report().String(), one.Report().String(); got != want {
					t.Errorf("GOMAXPROCS=%d, %d shards: Run(a); Run(b) report:\n%s\nRun(b):\n%s", procs, shards, got, want)
				}
			}()
		}
	}
}

// settledGoroutines returns the goroutine count once it is at most want, or
// after a second. Run returns only after every worker has signalled that it
// left its loop, but a worker may not yet be off the runtime's books — nor
// one an earlier Run started, counted in want (seen under -race).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// firstDiff renders the first line where two strings diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + itoa(i+1) + ": got " + al[i] + " | want " + bl[i]
		}
	}
	return "length mismatch"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestSteadyStateAllocsPerPacket is the run-time guard on the data plane's
// allocation-free contract (source → handlePacket → startTx → txDone →
// scheduleArrival → arrive, importWire at 2 shards, adaptiveNextHop on the
// adaptive plane): after warm-up the heap allocations per delivered packet
// stay at amortized-growth level. The three rows differ in what still
// allocates by design, so each has its own bound; an allocation planted on
// any per-packet path adds ≥ 1 to every row.
//
// Measured in PR 25 (go1.24, 128-node hier:8x16, 50 pkt/s/node,
// 4 simulated seconds ≈ 25k delivered packets): 27–45 mallocs static at any
// shard count (slot-store and pending-buffer growth; a window allocates
// nothing, and Run's workers and their channels are a few mallocs a call),
// 520–565 adaptive (flooded updates, each a fresh immutable payload). Bounds
// leave 4.5–9× headroom over those.
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	for _, c := range []struct {
		name     string
		shards   int
		adaptive bool
		bound    float64 // mallocs per delivered packet
	}{
		{"static/1shard", 1, false, 0.01},
		{"static/2shards", 2, false, 0.01},
		{"static/4shards", 4, false, 0.01},
		{"adaptive/1shard", 1, true, 0.1},
		{"adaptive/2shards", 2, true, 0.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Graph:      topology.Hierarchical(8, 16, 7),
				Shards:     c.shards,
				Seed:       7,
				PktRate:    50,
				Dests:      4,
				DestRadius: 1,
			}
			if c.adaptive {
				cfg.Adaptive, cfg.Metric, cfg.MeasurePeriod = true, node.HNSPF, sim.Second
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const warm, span = 3 * sim.Second, 4 * sim.Second
			s.Run(warm)
			delivered := s.Report().Conservation.Delivered
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Run(warm + span)
			runtime.ReadMemStats(&after)
			delivered = s.Report().Conservation.Delivered - delivered
			if delivered < 10000 {
				t.Fatalf("only %d packets delivered; the measurement is vacuous", delivered)
			}
			perPkt := float64(after.Mallocs-before.Mallocs) / float64(delivered)
			t.Logf("%d mallocs over %d delivered packets = %.5f/packet", after.Mallocs-before.Mallocs, delivered, perPkt)
			if perPkt > c.bound {
				t.Errorf("%.4f heap allocations per delivered packet in steady state, want <= %g", perPkt, c.bound)
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sending returns the packet on the trunk's transmitter, or nil when it is
// idle: the one Holding visits after the backlog.
func sending(t *node.Trunk) *node.Packet {
	var on *node.Packet
	i := 0
	t.Holding(func(p *node.Packet) {
		if i == t.Queue.Len() {
			on = p
		}
		i++
	})
	return on
}

// generated returns the packets offered so far, over every shard.
func generated(s *Sim) int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.led.User.Offered
	}
	return n
}
