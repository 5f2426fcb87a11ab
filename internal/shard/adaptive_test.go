package shard

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
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
	if ref.Report().Delivered == 0 {
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
	s := run(t, cfg, 4*sim.Second)
	r := s.Report()
	// Every node floods at least its first measurement-period update; with
	// dedup each update is consumed at most once per (node, neighbour) pair,
	// so consumption at every node proves the floods crossed the congested
	// queues.
	if r.Originated < int64(g.NumNodes()) {
		t.Errorf("originated %d updates, want >= %d (one per node)", r.Originated, g.NumNodes())
	}
	if r.CtrlOutageDrops != 0 {
		t.Errorf("control outage drops %d without any fault", r.CtrlOutageDrops)
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
		t.Fatalf("node %d has %d out-links; the test needs two copies per flood", n.id, len(n.out))
	}
	n.cseq = math.MaxUint32 - 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "control sequence") || !strings.Contains(msg, "node 5") {
			t.Fatalf("second copy past the limit: recovered %q, want the named control-sequence panic", msg)
		}
		first := n.out[0].Sending()
		if first == nil || first.Seq != ctrlSeqBit|5<<32|math.MaxUint32 {
			t.Fatalf("last in-range copy: %+v, want Seq %#x", first, ctrlSeqBit|5<<32|uint64(math.MaxUint32))
		}
	}()
	n.sh.originate(n, sim.Millisecond)
	t.Fatal("originate returned: cseq passed 2^32 unnoticed")
}

// What an adaptive Sim keeps per node after set-up: the router model of
// §2.2 (8·L + 16·N bytes: cost database and tree), 9·N of flood dedup, and
// the data plane (queues, links, sources, the per-epoch route skeleton).
// Measured on hier:8x8 (64 nodes, 266 links, 2 shards): 13.2 KB/node, of
// which 3.2 KB is the router model. One SPF Workspace left reachable per
// router — the retention this test exists for — adds a second cost array,
// an (L+1)-entry heap and a settled set, 5.9 KB/node here, and measures
// 19.1 KB/node.
func TestAdaptiveRetainedHeapPerNode(t *testing.T) {
	const bound = 16 << 10 // bytes per node
	g := topology.Hierarchical(8, 8, 7)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(Config{Graph: g, Shards: 2, Seed: 7, PktRate: 1, Dests: 4, Adaptive: true, Metric: node.HNSPF})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	n, l := g.NumNodes(), g.NumLinks()
	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	t.Logf("%d nodes, %d links: %.0f B/node live after New; router model 8L+16N = %d B/node", n, l, perNode, 8*l+16*n)
	if perNode > bound {
		t.Errorf("%.0f bytes of live heap per node after New, want <= %d", perNode, bound)
	}
}
