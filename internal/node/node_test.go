package node

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/flooding"
	"repro/internal/topology"
)

func user(seq uint64) *Packet { return &Packet{Seq: seq, SizeBits: 600} }
func routing(seq uint64) *Packet {
	return &Packet{Seq: seq, Update: flooding.NewUpdate(0, seq, nil, nil)}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(10)
	for i := uint64(1); i <= 3; i++ {
		if !q.Push(user(i)) {
			t.Fatal("push rejected below limit")
		}
	}
	for i := uint64(1); i <= 3; i++ {
		if got := q.Pop(); got == nil || got.Seq != i {
			t.Fatalf("Pop returned %v, want seq %d", got, i)
		}
	}
	if q.Pop() != nil {
		t.Error("Pop on empty should return nil")
	}
}

func TestQueueDropsWhenFull(t *testing.T) {
	q := NewQueue(2)
	q.Push(user(1))
	q.Push(user(2))
	if q.Push(user(3)) {
		t.Error("push over limit should be rejected")
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}

func TestQueueRoutingPriority(t *testing.T) {
	q := NewQueue(2)
	q.Push(user(1))
	q.Push(user(2))
	// Routing packets jump the queue and ignore the limit.
	if !q.Push(routing(99)) {
		t.Fatal("routing packet must always be accepted")
	}
	if got := q.Pop(); !got.IsRouting() {
		t.Error("routing packet should pop first")
	}
	if got := q.Pop(); got.Seq != 1 {
		t.Error("user order should be preserved behind routing packets")
	}
}

func TestQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewQueue(0) should panic")
		}
	}()
	NewQueue(0)
}

// Property: with mixed pushes and pops, user packets leave in FIFO order
// and every routing packet leaves before any user packet pushed earlier.
func TestQueueOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewQueue(1000)
		var seq uint64
		var lastUser uint64
		for _, isRouting := range ops {
			seq++
			if isRouting {
				q.Push(routing(seq))
			} else {
				q.Push(user(seq))
			}
		}
		// All routing packets must come out before all user packets.
		seenUser := false
		for {
			p := q.Pop()
			if p == nil {
				return true
			}
			if p.IsRouting() {
				if seenUser {
					return false
				}
			} else {
				seenUser = true
				if p.Seq <= lastUser {
					return false
				}
				lastUser = p.Seq
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeasurement(t *testing.T) {
	var m Measurement
	if m.Take() != 0 {
		t.Error("empty period should average to 0 (idle line)")
	}
	m.Record(0.010)
	m.Record(0.020)
	if m.Count() != 2 {
		t.Errorf("Count = %d", m.Count())
	}
	if got := m.Take(); got != 0.015 {
		t.Errorf("Take = %v, want 0.015", got)
	}
	// Take resets.
	if m.Count() != 0 || m.Take() != 0 {
		t.Error("Take should reset the accumulator")
	}
}

// TestClampedMeanPktBits pins the closed-form mean packet size against a
// direct numeric integration of the clamped exponential. The network
// engine's source rates, arpanetsim's sharded BF-1969 traffic matrix and the
// shard engine's service estimate all divide or multiply by it.
func TestClampedMeanPktBits(t *testing.T) {
	t.Parallel()
	// E[min(max(X, lo), hi)] for X ~ Exp(mean), integrated by quadrature.
	const steps = 4_000_000
	lo, hi, mean := MinPktBits, MaxPktBits, MeanPktBits
	var want float64
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		x := -mean * math.Log(1-u)
		want += math.Min(math.Max(x, lo), hi)
	}
	want /= steps
	if got := ClampedMeanPktBits(); math.Abs(got-want) > 0.5 {
		t.Errorf("ClampedMeanPktBits() = %.3f, quadrature says %.3f", got, want)
	}
}

func TestNewCostModule(t *testing.T) {
	for _, k := range []MetricKind{HNSPF, DSPF, MinHop} {
		m := NewCostModule(k, topology.T56, 0.010)
		if m == nil {
			t.Fatalf("%v: nil module", k)
		}
		if c := m.Cost(); c <= 0 {
			t.Errorf("%v: fresh cost %v, want positive", k, c)
		}
		c, _ := m.Update(0.011)
		if c <= 0 {
			t.Errorf("%v: updated cost %v, want positive", k, c)
		}
	}
	if HNSPF.String() != "HN-SPF" || DSPF.String() != "D-SPF" || MinHop.String() != "min-hop" {
		t.Error("MetricKind names wrong")
	}
	if MetricKind(42).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestNewCostModulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown metric kind should panic")
		}
	}()
	NewCostModule(MetricKind(42), topology.T56, 0)
}

func TestMetricInitialCosts(t *testing.T) {
	// A network that is already running boots every module settled at its
	// idle line's cost, counted as reported: an idle first period floods
	// nothing. A line coming up (Reset) is different: HN-SPF starts it at
	// its max and eases in (§5.4); D-SPF and min-hop report their first
	// period.
	h := NewCostModule(HNSPF, topology.T56, 0)
	if h.Cost() != 30 || h.Floor() != 30 {
		t.Errorf("HN-SPF fresh cost = %v (floor %v), want the floor, 30", h.Cost(), h.Floor())
	}
	d := NewCostModule(DSPF, topology.T56, 0)
	if c := d.Cost(); c < 1.9 || c > 2.1 || c != d.Floor() {
		t.Errorf("D-SPF fresh cost = %v, want ~2 (bias)", c)
	}
	m := NewCostModule(MinHop, topology.T56, 0)
	for _, mod := range []CostModule{h, d, m} {
		before := mod.Cost()
		if c, report := mod.Update(0); report || c != before {
			t.Errorf("%T: an idle first period reported %v (report %v); a settled module floods nothing", mod, c, report)
		}
	}
	for _, mod := range []CostModule{h, d, m} {
		mod.Reset()
	}
	if h.Cost() != 90 {
		t.Errorf("HN-SPF cost after Reset = %v, want 90 (a line coming up eases in)", h.Cost())
	}
	if c, report := h.Update(0); !report || c != 90-core.DefaultParams(topology.T56).MaxDecrease() {
		t.Errorf("HN-SPF after Reset, idle period: %v (report %v), want one MaxDecrease below 90", c, report)
	}
	for _, mod := range []CostModule{d, m} {
		if c, report := mod.Update(0); !report || c != mod.Floor() {
			t.Errorf("%T after Reset, idle period: %v (report %v), want the floor, reported", mod, c, report)
		}
	}
}

func TestMultipathToleranceFraction(t *testing.T) {
	// Loop freedom (see spf.ComputeDAG) requires tolerance < (min link
	// cost)/2; the fraction applied to the smallest floor must respect it.
	if MultipathToleranceFraction <= 0 || MultipathToleranceFraction >= 0.5 {
		t.Errorf("fraction %v outside (0, 0.5)", MultipathToleranceFraction)
	}
	// Every metric's modules expose a positive floor for the derivation.
	for _, k := range []MetricKind{HNSPF, DSPF, MinHop} {
		m := NewCostModule(k, topology.T112, 0)
		if m.Floor() <= 0 {
			t.Errorf("%v floor %v, want positive", k, m.Floor())
		}
	}
}

// TestSteadyStateZeroAllocs is the node-side counterpart of the sim
// kernel's test of the same name: once the pool holds a packet and the
// queue ring has its first backing array, the per-packet operations every
// trunk performs — pool Get/Put, queue Push/Pop/Scan for both packet
// classes, the transmitter's Next/Started/Done, measurement Record/Take —
// allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	var pp PacketPool
	pp.Put(pp.Get()) // prime the free-list
	if avg := testing.AllocsPerRun(1000, func() { pp.Put(pp.Get()) }); avg != 0 {
		t.Errorf("PacketPool Get+Put allocates %.1f objects/op in steady state, want 0", avg)
	}

	q := NewQueue(4)
	u, r := user(1), routing(2)
	q.Push(u) // prime the ring
	q.Pop()
	var scanned int
	count := func(*Packet) { scanned++ }
	if avg := testing.AllocsPerRun(1000, func() {
		q.Push(u)
		q.Push(r) // head insert
		q.Scan(count)
		q.Pop()
		q.Pop()
	}); avg != 0 {
		t.Errorf("Queue Push+Scan+Pop allocates %.1f objects/op in steady state, want 0", avg)
	}
	if scanned == 0 {
		t.Fatal("Scan visited nothing")
	}

	tr, k := newTestTrunk()
	cycle := func() {
		tr.Queue.Push(u)
		transmit(tr, k)
		k.Step()
		tr.Done(k.Now())
	}
	cycle() // prime the trunk's ring and the kernel's slots
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("Trunk Next+Started+Done allocates %.1f objects/op in steady state, want 0", avg)
	}

	var m Measurement
	var sink float64
	if avg := testing.AllocsPerRun(1000, func() {
		m.Record(0.01)
		m.Record(0.02)
		sink += m.Take()
	}); avg != 0 {
		t.Errorf("Measurement Record+Take allocates %.1f objects/op, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("Take returned no delay")
	}
}
