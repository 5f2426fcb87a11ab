package arpanet

import "testing"

func TestTraceDisabledByDefault(t *testing.T) {
	topo := Ring(4, T56)
	res := mustRun(t, Spec{Topology: topo, Traffic: topo.UniformTraffic(10000), Seed: 1, Seconds: 30})
	if res.Trace != nil {
		t.Error("trace should be nil unless TraceCapacity is set")
	}
}

func TestTraceRecordsLinkEventsAndUpdates(t *testing.T) {
	topo := Ring(4, T56)
	res := mustRun(t, Spec{
		Topology: topo, Traffic: topo.UniformTraffic(20000),
		Metric: HNSPF, Seed: 2, TraceCapacity: 10000,
		Script: "duration 120\nat 30 down N0 N1\nat 60 up N0 N1\n",
	})

	ring := res.Trace
	if ring == nil {
		t.Fatal("trace enabled but nil")
	}
	if got := len(ring.OfKind(TraceLinkDown)); got != 1 {
		t.Errorf("link-down events = %d, want 1", got)
	}
	if got := len(ring.OfKind(TraceLinkUp)); got != 1 {
		t.Errorf("link-up events = %d, want 1", got)
	}
	if ring.Count(TraceUpdate) == 0 {
		t.Error("no update originations logged in 120 s")
	}
	// Ordering: the down precedes the up.
	down := ring.OfKind(TraceLinkDown)[0]
	up := ring.OfKind(TraceLinkUp)[0]
	if down.At >= up.At {
		t.Error("down should precede up")
	}
	if down.At.Seconds() < 29.9 || down.At.Seconds() > 30.1 {
		t.Errorf("down at %v, want ~30 s", down.At)
	}
}

func TestTraceRecordsDrops(t *testing.T) {
	// Overload a single trunk: drop events must appear with the right link.
	topo := NewTopology()
	topo.AddNode("A")
	topo.AddNode("B")
	topo.AddTrunk("A", "B", T56, 0.001)
	tr := topo.NewTraffic()
	tr.SetRate("A", "B", 80000) // 1.4× the trunk
	ring := mustRun(t, Spec{
		Topology: topo, Traffic: tr,
		Metric: MinHop, Seed: 3, TraceCapacity: 100, Seconds: 60,
	}).Trace
	if ring.Count(TraceDrop) == 0 {
		t.Fatal("sustained 140% load must log drops")
	}
	// The ring is bounded: at most 100 events retained, the rest counted.
	if ring.Len() > 100 {
		t.Errorf("ring retained %d events, capacity 100", ring.Len())
	}
	if ring.Count(TraceDrop) > 100 && ring.Overwritten() == 0 {
		t.Error("overflow should be visible via Overwritten")
	}
	for _, e := range ring.OfKind(TraceDrop) {
		if e.Node != 0 {
			t.Fatalf("drop attributed to node %d, want A (0)", e.Node)
		}
	}
}
