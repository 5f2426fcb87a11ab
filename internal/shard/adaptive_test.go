package shard

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/flooding"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

func adaptiveConfig(g *topology.Graph, shards int) Config {
	cfg := testConfig(g, shards)
	cfg.Adaptive = true
	cfg.Metric = node.DSPF
	return cfg
}

// The tentpole property extended to the adaptive plane: routing updates,
// reroutes and measurement-driven floods included, the merged trace and
// report are byte-identical for any shard count.
func TestAdaptiveDeterminismAcrossShardCounts(t *testing.T) {
	g := testGraph(t)
	cfg := adaptiveConfig(g, 1)
	bb := backboneTrunks(g)
	if len(bb) < 2 {
		t.Fatal("test graph has fewer than 2 backbone trunks")
	}
	cfg.Faults = []Fault{
		{Trunk: bb[0], At: 3 * sim.Second},
		{Trunk: bb[1], At: 5 * sim.Second},
		{Trunk: bb[0], At: 8 * sim.Second, Up: true},
	}
	until := 10 * sim.Second

	ref := run(t, cfg, until)
	refTrace := ref.TraceText()
	refReport := ref.Report().String()
	if ref.Report().Conservation.Delivered == 0 {
		t.Fatal("reference run delivered nothing")
	}
	if ref.Report().Originated == 0 || ref.Report().CtrlGenerated == 0 {
		t.Fatal("adaptive run flooded no routing updates")
	}
	for _, kind := range []string{"originate", "meas", "link-down", "link-up"} {
		if !strings.Contains(refTrace, kind) {
			t.Fatalf("reference trace records no %q events", kind)
		}
	}

	for _, shards := range []int{2, 3, 4, 8} {
		c := cfg
		c.Shards = shards
		s := run(t, c, until)
		var ctrlExported int64
		for _, l := range s.Ledgers() {
			ctrlExported += l.CtrlExported
		}
		if ctrlExported == 0 {
			t.Fatalf("shards=%d: no routing update crossed a shard boundary; the test exercises nothing", shards)
		}
		if got := s.TraceText(); got != refTrace {
			t.Fatalf("shards=%d: trace differs from single-kernel run (%d vs %d bytes): %s",
				shards, len(got), len(refTrace), firstDiff(got, refTrace))
		}
		if got := s.Report().String(); got != refReport {
			t.Errorf("shards=%d: report differs:\n%s\nwant:\n%s", shards, got, refReport)
		}
	}
}

// An explicit Partition override must be invisible to every observable —
// the same property the custody torture check (internal/check) leans on
// when it draws random cuts.
func TestAdaptivePartitionOverride(t *testing.T) {
	g := testGraph(t)
	cfg := adaptiveConfig(g, 1)
	bb := backboneTrunks(g)
	cfg.Faults = []Fault{{Trunk: bb[0], At: 2 * sim.Second}}
	until := 6 * sim.Second
	want := run(t, cfg, until).TraceText()

	// A deliberately bad cut: round-robin striping ignores locality entirely,
	// cutting intra-region trunks the partitioner never would.
	c := cfg
	c.Shards = 3
	c.Partition = make([]int, g.NumNodes())
	for i := range c.Partition {
		c.Partition[i] = i % 3
	}
	s := run(t, c, until)
	if got := s.TraceText(); got != want {
		t.Fatalf("striped partition changed the trace: %s", firstDiff(got, want))
	}
}

// The control-plane custody identity holds under congestion and faults, and
// the control books stay disjoint from the user books.
func TestAdaptiveControlLedger(t *testing.T) {
	g := topology.Hierarchical(2, 6, 5)
	bb := backboneTrunks(g)
	cfg := Config{
		Graph:         g,
		Shards:        2,
		Seed:          1,
		PktRate:       200,
		Dests:         4,
		QueueLimit:    2,
		Adaptive:      true,
		Metric:        node.DSPF,
		MeasurePeriod: sim.Second,
		Faults:        []Fault{{Trunk: bb[0], At: 1500 * sim.Millisecond}},
	}
	s := run(t, cfg, 4*sim.Second)
	r := s.Report()
	if r.CtrlGenerated == 0 || r.CtrlConsumed == 0 {
		t.Fatalf("no control traffic moved: %+v", r)
	}
	if r.BufferDrops == 0 {
		t.Error("200 pkts/s/node into 2-packet queues dropped nothing")
	}
	for i, l := range s.Ledgers() {
		if err := l.Err(); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}
	if !r.Conservation.Balanced() {
		t.Errorf("user ledger does not balance: %+v", r.Conservation)
	}
}

// Routing updates are never buffer-dropped: they head-insert past full
// queues, so congestion cannot partition the control plane.
func TestAdaptiveUpdatesSurviveCongestion(t *testing.T) {
	g := topology.Hierarchical(2, 6, 5)
	cfg := Config{
		Graph:         g,
		Shards:        2,
		Seed:          1,
		PktRate:       200,
		Dests:         4,
		QueueLimit:    2,
		Adaptive:      true,
		Metric:        node.DSPF,
		MeasurePeriod: sim.Second,
	}
	// Every node's 50 s refresh falls due inside the horizon, so every node
	// floods at least once; the convergence audit then proves the floods
	// crossed the congested queues: every node holds the latest update of
	// each origin with nothing in flight.
	s := run(t, cfg, node.MaxUpdateInterval+2*sim.Second)
	r := s.Report()
	if r.Originated < int64(g.NumNodes()) {
		t.Errorf("originated %d updates, want >= %d (one per node)", r.Originated, g.NumNodes())
	}
	if r.BufferDrops == 0 {
		t.Error("no buffer drops: the queues were not congested")
	}
	if r.CtrlOutageDrops != 0 {
		t.Errorf("control outage drops %d without any fault", r.CtrlOutageDrops)
	}
	if quiet := s.QuietOrigins(); quiet == 0 {
		t.Error("every origin has an update in flight: the audit checks nothing")
	}
	if err := s.ConvergenceAudit(); err != nil {
		t.Error(err)
	}
}

// Packet.Seq of a control copy is ctrlSeqBit | node<<32 | cseq. The last
// counter value that fits must pack with the origin field intact, and the
// one after it must panic instead of carrying into that field.
func TestCtrlSeqExhaustionPanics(t *testing.T) {
	s, err := New(adaptiveConfig(testGraph(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	n := s.nodeAt[5]
	if len(n.out) < 2 {
		t.Fatalf("node %d has %d out-links; the test needs two copies per flood", n.ID, len(n.out))
	}
	n.cseq = math.MaxUint32 - 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "control sequence") || !strings.Contains(msg, "node 5") {
			t.Fatalf("second copy past the limit: recovered %q, want the named control-sequence panic", msg)
		}
		first := sending(&n.out[0].Trunk)
		if first == nil || first.Seq != ctrlSeqBit|5<<32|math.MaxUint32 {
			t.Fatalf("last in-range copy: %+v, want Seq %#x", first, ctrlSeqBit|5<<32|uint64(math.MaxUint32))
		}
	}()
	n.sh.originate(n, sim.Millisecond)
	t.Fatal("originate returned: cseq passed 2^32 unnoticed")
}

// Packet.Seq of a user packet is node<<32 | pseq. The last counter value the
// guard lets through must pack with the node field intact, and the one after
// it must panic instead of carrying into that field.
func TestUserSeqExhaustionPanics(t *testing.T) {
	s, err := New(testConfig(testGraph(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	n := s.nodeAt[5]
	n.pseq = math.MaxUint32 - 1
	sent := func() *node.Packet {
		for _, ls := range n.out {
			if p := sending(&ls.Trunk); p != nil {
				return p
			}
		}
		return nil
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "user sequence") || !strings.Contains(msg, "node 5") {
			t.Fatalf("packet past the limit: recovered %q, want the named user-sequence panic", msg)
		}
		if p := sent(); p == nil || p.Seq != 5<<32|(math.MaxUint32-1) {
			t.Fatalf("last in-range packet: %+v, want Seq %#x", p, uint64(5<<32|(math.MaxUint32-1)))
		}
	}()
	n.sh.source(sim.Millisecond, n)
	if sent() == nil {
		t.Fatal("the in-range packet is on no transmitter of its source")
	}
	n.sh.source(2*sim.Millisecond, n)
	t.Fatal("source returned: pseq passed 2^32 unnoticed")
}

// Accept is the one place an update copy is ruled new or duplicate, so the
// routers' own counters must add up to the custody ledger's: every copy a
// node consumed and every update it originated was offered exactly once.
// bench/ only estimates this by division (shard.ctrl_copies_per_update).
func TestRoutingStatsMatchLedger(t *testing.T) {
	g := testGraph(t)
	bb := backboneTrunks(g)
	for _, shards := range []int{1, 2} {
		cfg := adaptiveConfig(g, shards)
		cfg.Faults = []Fault{{Trunk: bb[0], At: 3 * sim.Second}, {Trunk: bb[0], At: 6 * sim.Second, Up: true}}
		s := run(t, cfg, 8*sim.Second)
		st, r := s.RoutingStats(), s.Report()
		t.Logf("shards=%d: %+v; consumed %d, originated %d", shards, st, r.CtrlConsumed, r.Originated)
		if r.Originated == 0 || st.Duplicates == 0 || st.Repairs == 0 {
			t.Fatalf("shards=%d: nothing to compare: %+v, %+v", shards, st, r)
		}
		if st.Accepted+st.Duplicates != r.CtrlConsumed+r.Originated {
			t.Errorf("shards=%d: accepted %d + duplicates %d != consumed %d + originated %d",
				shards, st.Accepted, st.Duplicates, r.CtrlConsumed, r.Originated)
		}
	}
	if st := run(t, testConfig(g, 2), sim.Second).RoutingStats(); st != (spf.TableStats{}) {
		t.Errorf("static plane reports routing stats %+v", st)
	}
}

// liveHeapAfter builds a Sim and returns it with the live heap it added.
func liveHeapAfter(t *testing.T, cfg Config) (*Sim, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return s, float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// What an adaptive Sim keeps per node after set-up: the router model of
// §2.2 (12·N bytes, the tree; the link-cost database is its shard's table's,
// 120 bytes an origin and 8 a link shared by the shard's 32 routers) and the
// data plane (queues, links, sources). Measured
// on hier:8x8 (64 nodes, 266 links, 2 shards), the test run alone:
// 2.7 KB/node, of which 0.75 KB is the router model and 0.3 KB its share of
// the database; beside the package's parallel tests it reads up to 3.3 KB.
// (While the HN-SPF delay→utilization arrays were stored, a process-wide
// cache added 8 KB/node to whichever test built them first; the bound dates
// from then.) Link IDs in the tree again add 4·N = 0.25 KB/node, which only
// TestTableRetainsOnlyTheModel and TestHier1kAdaptiveLiveHeap are sharp
// enough to catch; a row of pointers per PSN 8·N = 0.5 KB, a private cost
// per link 8·L = 2.1 KB and a dedup table 9·N = 0.6 KB more; one SPF
// Workspace left reachable per router, the retention this test was written
// for, 5.6 KB on top.
func TestAdaptiveRetainedHeapPerNode(t *testing.T) {
	const bound = 10<<10 + 512 // bytes per node
	g := topology.Hierarchical(8, 8, 7)
	s, live := liveHeapAfter(t, Config{Graph: g, Shards: 2, Seed: 7, PktRate: 1, Dests: 4, Adaptive: true, Metric: node.HNSPF})
	runtime.KeepAlive(s)
	n, l := g.NumNodes(), g.NumLinks()
	perNode := live / float64(n)
	t.Logf("%d nodes, %d links: %.0f B/node live after New; router model 12N = %d B/node", n, l, perNode, 12*n)
	if perNode > bound {
		t.Errorf("%.0f bytes of live heap per node after New, want <= %d", perNode, bound)
	}
}

// The benchmark's hier1k_adaptive configuration, at the size the benchmark
// runs it: the in-repo twin of go.heap_live_mb_after_setup, so a routing
// table that grows back an L·N term fails here without the benchmark.
// 14.7 MB with line numbers in the trees (12 MB of it n·12·N); 15.1 MB with
// the delay→utilization arrays stored as well, 18.7 MB with link IDs in the
// trees, 26.3 MB with a row of pointers per PSN as well, 63.0 MB with 8·L of
// copied costs and a dedup table per PSN.
func TestHier1kAdaptiveLiveHeap(t *testing.T) {
	const bound = 15 << 20
	g := topology.Hierarchical(32, 32, 1987)
	s, live := liveHeapAfter(t, Config{Graph: g, Shards: 2, Seed: 1987, PktRate: 2, Dests: 3, Adaptive: true, Metric: node.HNSPF})
	runtime.KeepAlive(s)
	n := g.NumNodes()
	t.Logf("%d nodes, %d links: %.1f MB live after New, %.0f B/node; router model 12N = %d B/node",
		n, g.NumLinks(), live/(1<<20), live/float64(n), 12*n)
	if live > bound {
		t.Errorf("%.1f MB of live heap after New, want <= %d MB", live/(1<<20), bound>>20)
	}
}

// TestAdaptiveHealResyncs is internal/network's TestHealResyncsPartition on
// the adaptive plane: a two-region map is cut between its regions, one more
// trunk fails in each region while it is cut, and the cut heals. The cut must
// hide news: at the last quiet instant before the heal each side has
// converged but the map as the heal leaves it has not. Within node.FloodTime
// of the heal every node holds, for each origin it reaches, an update at least
// as new as the one the origin held at the heal; and the first instant after
// that with no update in flight passes the shared convergence audit
// (node.AuditConvergence): every node holds each reachable origin's latest
// update. At 1 and 2 shards, with byte-identical traces and reports, and
// balanced ledgers.
func TestAdaptiveHealResyncs(t *testing.T) {
	g := topology.Hierarchical(2, 6, 5)
	bb := backboneTrunks(g)
	start, heal := 3*sim.Second, 6*sim.Second
	var faults []Fault
	for _, tr := range bb {
		faults = append(faults, Fault{Trunk: tr, At: start}, Fault{Trunk: tr, At: heal, Up: true})
	}
	hit := map[byte]bool{}
	for tr := 0; tr < g.NumTrunks(); tr++ {
		l := g.Link(topology.LinkID(2 * tr))
		if region := g.Node(l.From).Name[1]; !slices.Contains(bb, tr) && !hit[region] {
			hit[region] = true
			faults = append(faults, Fault{Trunk: tr, At: start + sim.Second})
		}
	}
	cfg := Config{Graph: g, Seed: 1, PktRate: 20, Dests: 3, Adaptive: true, Metric: node.DSPF,
		MeasurePeriod: sim.Second, MeasureSample: 3, Faults: faults}
	var trace, report string
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// settle runs s in 1 ms steps from at until no update copy is in
		// flight, and returns that instant; it fails the test past until.
		settle := func(at, until sim.Time) sim.Time {
			for ; at <= until; at += sim.Millisecond {
				if s.Run(at); s.Report().CtrlInFlight == 0 {
					return at
				}
			}
			t.Fatalf("shards=%d: update copies still in flight at %v", shards, until)
			return 0
		}
		down := func(l topology.LinkID) bool { return s.linkAt[l].Down() }
		healed := func(l topology.LinkID) bool { return down(l) && !slices.Contains(bb, g.Link(l).Trunk) }
		routers := make([]*spf.IncrementalRouter, g.NumNodes())
		for id, n := range s.nodeAt {
			routers[id] = n.Router
		}
		quiet := settle(heal-sim.Second, heal-1)
		if err := s.ConvergenceAudit(); err != nil {
			t.Fatalf("shards=%d: a side of the cut has not converged at %v: %v", shards, quiet, err)
		}
		stale := node.AuditConvergence(g, routers, healed, make([]int, g.NumNodes()), 0)
		if stale == nil {
			t.Fatalf("shards=%d: the cut hid no news; the heal has nothing to resync", shards)
		}
		// held[o] is the sequence number r holds for origin o.
		held := func(r *spf.IncrementalRouter) []uint64 {
			h := make([]uint64, g.NumNodes())
			r.Updates(func(u *flooding.Update) { h[u.Origin] = u.Seq })
			return h
		}
		s.Run(heal)
		atHeal := make([]uint64, g.NumNodes())
		for o, r := range routers {
			atHeal[o] = held(r)[o]
		}
		bound := node.FloodTime(g, healed)
		s.Run(heal + bound)
		comp := topology.Components(g, func(l topology.LinkID) bool { return !down(l) })
		for i, r := range routers {
			for o, seq := range held(r) {
				if comp[i] == comp[o] && seq < atHeal[o] {
					t.Fatalf("shards=%d: node %s holds update %d from %s %v after the heal; it held %d at the heal",
						shards, g.Node(topology.NodeID(i)).Name, seq, g.Node(topology.NodeID(o)).Name, bound, atHeal[o])
				}
			}
		}
		settled := settle(heal+bound, heal+bound+5*sim.Second)
		if err := s.Audit(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := s.ConvergenceAudit(); err != nil {
			t.Fatalf("shards=%d: %v after the heal: %v", shards, settled-heal, err)
		}
		t.Logf("shards=%d: before the heal, %v; converged %v after it (bound %v)", shards, stale, settled-heal, bound)
		if shards == 1 {
			trace, report = s.TraceText(), s.Report().String()
		} else if got := s.TraceText(); got != trace {
			t.Fatalf("shards=%d: trace differs from one shard's: %s", shards, firstDiff(got, trace))
		} else if got := s.Report().String(); got != report {
			t.Fatalf("shards=%d: report differs:\n%s\nwant:\n%s", shards, got, report)
		}
	}
}
