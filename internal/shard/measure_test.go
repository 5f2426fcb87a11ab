package shard

import (
	"fmt"
	"testing"

	"repro/internal/flooding"
	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// recorder wraps a trunk's cost module and keeps every delay the engine
// feeds it, with the cost and report flag the module returned. It passes
// no report on, so the trunk's owner floods only its refresh, whose copy
// crosses the trunk in the period after the owner's first measurement.
type recorder struct {
	node.CostModule
	delays, costs []float64
	reports       []bool
}

func (r *recorder) Update(delay float64) (float64, bool) {
	cost, report := r.CostModule.Update(delay)
	r.delays = append(r.delays, delay)
	r.costs = append(r.costs, cost)
	r.reports = append(r.reports, report)
	return cost, false
}

// TestIdleLinkMeasurement: on a trunk that carries nothing but one packet a
// measurement period, the delay the engine feeds Module.Update is exactly
// that packet's tick-rounded transmission time plus node.ProcessingDelay,
// and D-SPF's first report is exactly (delay + propagation) / DSPFUnit. The
// second period carries only the refresh node A (ID 0) floods at its first
// measurement, and measures exactly that update's transmission plus
// processing — the numbers internal/network's test of the same name holds
// that engine to, at one shard and across a shard boundary.
func TestIdleLinkMeasurement(t *testing.T) {
	const (
		prop    = 0.004  // seconds
		bits    = 5000.0 // enough delay for D-SPF's first report: ≥ 64 ms over the bias
		periods = 4      // node A measures at 10, 20, 30 and 40 s; its refresh floods at 10 s
	)
	want := sim.FromSeconds(bits/topology.T56.Bandwidth()).Seconds() + node.ProcessingDelay.Seconds()
	refresh := sim.FromSeconds(float64(flooding.HeaderBits+flooding.PerLinkBits)/topology.T56.Bandwidth()).Seconds() +
		node.ProcessingDelay.Seconds()
	cost := (want + prop) / metric.DSPFUnit
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g := topology.New()
			a, b := g.AddNode("A"), g.AddNode("B")
			ab, _ := g.AddTrunkDelay(a, b, topology.T56, prop)
			// A source rate this low draws no packet inside the horizon;
			// the ledger check below holds it to that.
			s, err := New(Config{Graph: g, Shards: shards, Seed: 1, PktRate: 1e-6, Dests: 1,
				Adaptive: true, Metric: node.DSPF})
			if err != nil {
				t.Fatal(err)
			}
			ls := s.linkAt[ab]
			rec := &recorder{CostModule: ls.Module}
			ls.Module = rec

			n := s.nodeAt[a]
			sh := n.sh
			send := func(now sim.Time, _ any) {
				p := sh.pool.Get()
				p.Src, p.Dst = a, b
				p.SizeBits, p.Created = bits, now
				p.Arrival = topology.NoLink
				sh.led.Generated++
				sh.handlePacket(n, p, now)
			}
			for k := 0; k < periods; k++ {
				if k != 1 { // the refresh's period
					mustCallAt(sh.kernel, sim.Time(k)*node.MeasurementPeriod+3*sim.Second, send, nil)
				}
			}
			s.Run(sim.Time(periods)*node.MeasurementPeriod + 5*sim.Second)
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
			if got := Compose(s.Ledgers()).Offered; got != periods-1 {
				t.Fatalf("%d user packets generated, want only the test's %d", got, periods-1)
			}

			if len(rec.delays) != periods {
				t.Fatalf("Module.Update called %d times, want %d", len(rec.delays), periods)
			}
			for i, d := range rec.delays {
				if i == 1 && d != refresh {
					t.Errorf("period 2: Module.Update got %.9g s, want %.9g s (the refresh's transmission + processing)", d, refresh)
				} else if i != 1 && d != want {
					t.Errorf("period %d: Module.Update got %.9g s, want %.9g s (transmission + processing)", i+1, d, want)
				}
			}
			dspf := rec.CostModule.(*metric.DSPF)
			if cost <= dspf.Bias() || cost >= dspf.Ceiling() {
				t.Fatalf("test packet's cost %.4g is not inside (%.4g, %.4g); pick another size", cost, dspf.Bias(), dspf.Ceiling())
			}
			if !rec.reports[0] || rec.costs[0] != cost {
				t.Errorf("D-SPF's first report = %.9g (report %v), want %.9g", rec.costs[0], rec.reports[0], cost)
			}
		})
	}
}
