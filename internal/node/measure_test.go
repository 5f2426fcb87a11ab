package node

import (
	"testing"

	"repro/internal/flooding"
	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// delays wraps a trunk's cost module and keeps every delay a tick feeds it,
// with the cost and report flag the module returned. It passes no report
// on, so the trunk's owner floods only its refresh.
type delays struct {
	CostModule
	delays, costs []float64
	reports       []bool
}

func (r *delays) Update(delay float64) (float64, bool) {
	cost, report := r.CostModule.Update(delay)
	r.delays = append(r.delays, delay)
	r.costs = append(r.costs, cost)
	r.reports = append(r.reports, report)
	return cost, false
}

// TestIdleLinkMeasurement: §2.2 on a trunk that carries nothing but one
// packet a measurement period. The delay PSN.Tick feeds the line's cost
// module is exactly that packet's tick-rounded transmission time
// (Trunk.Next) plus ProcessingDelay (Trunk.Done), and D-SPF's first report
// is exactly (delay + propagation) / DSPFUnit. The second period carries
// only the refresh PSN A (ID 0) floods at its first tick, put on the line
// as an engine puts an Egress.Send copy, and measures exactly that update's
// transmission plus processing. Both packet engines run this code; this test
// holds the rule itself, through the recording Egress, and each engine's
// TestIdleLinkMeasurement holds the same numbers end to end.
func TestIdleLinkMeasurement(t *testing.T) {
	const (
		prop    = 0.004  // seconds
		bits    = 5000.0 // enough delay for D-SPF's first report: ≥ 64 ms over the bias
		periods = 4      // A measures at 10, 20, 30 and 40 s; its refresh floods at 10 s
	)
	g := topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	ab, _ := g.AddTrunkDelay(a, b, topology.T56, prop)
	ts, trunk := trunks(g, DSPF)
	rec := &delays{CostModule: ts[ab].Module}
	ts[ab].Module = rec
	psnA := &PSN{ID: a}
	Boot(DSPF, true, false, 1, g, []*PSN{psnA, {ID: b}}, trunk, MeasurementPeriod)
	line := &ts[ab]
	// send puts p on A's idle line at now and completes its transmission.
	send := func(p *Packet, now sim.Time) {
		p.Enqueued = now
		if !line.Queue.Push(p) {
			t.Fatalf("line refused %+v", p)
		}
		got, tx := line.Next()
		if got != p || line.Done(now+tx) != p {
			t.Fatalf("line did not transmit %+v", p)
		}
	}
	e := &recorder{}
	for k := range sim.Time(periods) {
		if k != 1 { // the refresh's period
			send(&Packet{Src: a, Dst: b, SizeBits: bits, Arrival: topology.NoLink}, k*MeasurementPeriod+3*sim.Second)
		}
		tick := psnA.FirstTick(g.NumNodes()) + k*MeasurementPeriod
		if next := psnA.Tick(g, e, tick); next != MeasurementPeriod {
			t.Fatalf("tick at %v: next in %v, want %v", tick, next, MeasurementPeriod)
		}
		for _, c := range e.sent {
			send(&Packet{Src: a, SizeBits: c.u.SizeBits(), Created: c.created, Update: c.u, Arrival: c.link}, c.when)
		}
		e.sent = e.sent[:0]
	}

	want := sim.FromSeconds(bits/topology.T56.Bandwidth()).Seconds() + ProcessingDelay.Seconds()
	refresh := sim.FromSeconds(float64(flooding.HeaderBits+flooding.PerLinkBits)/topology.T56.Bandwidth()).Seconds() +
		ProcessingDelay.Seconds()
	if len(rec.delays) != periods || len(e.originated) != 1 {
		t.Fatalf("Module.Update called %d times, A originated %d updates; want %d and its one refresh", len(rec.delays), len(e.originated), periods)
	}
	for i, d := range rec.delays {
		if i == 1 && d != refresh {
			t.Errorf("period 2: Module.Update got %.9g s, want %.9g s (the refresh's transmission + processing)", d, refresh)
		} else if i != 1 && d != want {
			t.Errorf("period %d: Module.Update got %.9g s, want %.9g s (transmission + processing)", i+1, d, want)
		}
	}
	dspf := rec.CostModule.(*metric.DSPF)
	cost := (want + prop) / metric.DSPFUnit
	if cost <= dspf.Bias() || cost >= dspf.Ceiling() {
		t.Fatalf("test packet's cost %.4g is not inside (%.4g, %.4g); pick another size", cost, dspf.Bias(), dspf.Ceiling())
	}
	if !rec.reports[0] || rec.costs[0] != cost {
		t.Errorf("D-SPF's first report = %.9g (report %v), want %.9g", rec.costs[0], rec.reports[0], cost)
	}
}
