package node

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Meter is one PSN's share of the measured window: the bits of the user
// packets it offered and delivered, those packets' delays and hops, and the
// routing packets its lines transmitted. The PSN books into it in its own
// event order, which is the same on both engines and on every partition of
// the sharded one, and Window.Report adds the meters in node order; the
// delay and hop sums are integers, so their total does not depend on the
// order at all. The packet counts are the ledger's.
type Meter struct {
	OfferedBits, DeliveredBits float64
	Delay                      sim.Time // the delivered packets' delays, summed
	Hops                       int64    // the delivered packets' hops, summed
	UpdateTx                   int64    // routing packets transmitted on the PSN's lines
	RoutingBits                float64  // their bits
}

// Offer books a user packet the PSN's source created.
func (m *Meter) Offer(p *Packet) { m.OfferedBits += p.SizeBits }

// Deliver books a user packet that reached its destination, this PSN, at now.
func (m *Meter) Deliver(p *Packet, now sim.Time) {
	m.DeliveredBits += p.SizeBits
	m.Delay += now - p.Created
	m.Hops += int64(p.Hops)
}

// Transmit books a routing packet whose transmission on one of the PSN's
// lines completed.
func (m *Meter) Transmit(p *Packet) {
	m.UpdateTx++
	m.RoutingBits += p.SizeBits
}

// Window is the measured window a Report covers: since when, the ledger
// and the originations as they stood then, the PSNs whose meters it adds,
// in node order, and each link's utilization samples. A window is open from
// boot; Open, the one way to start a fresh one, is how internal/network
// ends its warm-up.
type Window struct {
	nodes      int
	psn        func(i int) *PSN   // by node ID
	trunk      func(l int) *Trunk // by link ID
	util       []float64          // by link: the mean of its samples taken in service
	since      sim.Time
	base       Conservation
	originated int64

	// MinPathHops is the traffic's MinPathHops, which the engine sets once
	// per traffic input.
	MinPathHops float64
}

// NewWindow returns the window, open since t = 0, over nodes PSNs, psn(i)
// the one with ID i, and links trunks, trunk(l) the one of link l.
func NewWindow(nodes int, psn func(i int) *PSN, links int, trunk func(l int) *Trunk) *Window {
	return &Window{nodes: nodes, psn: psn, trunk: trunk, util: make([]float64, links)}
}

// Open starts the window afresh at now, with led the ledger as it stands:
// every meter and utilization mean restarts, and the report's packet rows
// become the ledger's growth from led.
func (w *Window) Open(now sim.Time, led Conservation) {
	w.since, w.base, w.originated = now, led, 0
	for i := 0; i < w.nodes; i++ {
		p := w.psn(i)
		p.Meter = Meter{}
		w.originated += p.Originated
	}
	for l := range w.util {
		w.util[l], w.trunk(l).samples = 0, 0
	}
}

// Sample closes one utilization sample of length dt on link l: the share
// of its trunk's capacity the transmissions that completed since the last
// sample filled, plus extra (a fluid background's share). The sample joins
// l's mean if the trunk is in service, and is returned either way. Both
// engines sample every link once a second, after every other event of the
// instant.
func (w *Window) Sample(l topology.LinkID, dt sim.Time, extra float64) float64 {
	t := w.trunk(int(l))
	u := t.sent/(t.Bandwidth*dt.Seconds()) + extra
	t.sent = 0
	if !t.down {
		t.samples++
		w.util[l] += (u - w.util[l]) / float64(t.samples)
	}
	return u
}

// Report composes the window at now, given the ledger led as it stands. The
// engine fills in the control counters of its custody records. Composition
// is O(nodes + links).
func (w *Window) Report(metric string, now sim.Time, led Conservation) Report {
	r := Report{
		Metric:       metric,
		Duration:     (now - w.since).Seconds(),
		Conservation: led,
		Generated:    led.Offered,
		Delivered:    led.Delivered,
	}
	var m Meter
	for i := 0; i < w.nodes; i++ {
		p := w.psn(i)
		r.Originated += p.Originated
		m.OfferedBits += p.Meter.OfferedBits
		m.DeliveredBits += p.Meter.DeliveredBits
		m.Delay += p.Meter.Delay
		m.Hops += p.Meter.Hops
		m.UpdateTx += p.Meter.UpdateTx
		m.RoutingBits += p.Meter.RoutingBits
	}
	dur := r.Duration
	if dur <= 0 {
		return r
	}
	r.OfferedPackets = led.Offered - w.base.Offered
	r.DeliveredPackets = led.Delivered - w.base.Delivered
	r.InternodeTrafficKbps = m.DeliveredBits / dur / 1000
	r.OfferedKbps = m.OfferedBits / dur / 1000
	if d := r.DeliveredPackets; d > 0 {
		r.RoundTripDelayMs = 2 * m.Delay.Seconds() / float64(d) * 1000
		r.ActualPathHops = float64(m.Hops) / float64(d)
	}
	r.MinPathHops = w.MinPathHops
	if r.MinPathHops > 0 {
		r.PathRatio = r.ActualPathHops / r.MinPathHops
	}
	var sum float64
	var sampled int
	for l, u := range w.util {
		if w.trunk(l).samples > 0 {
			sum += u
			sampled++
			r.MaxLinkUtilization = max(r.MaxLinkUtilization, u)
		}
	}
	if sampled > 0 {
		r.MeanLinkUtilization = sum / float64(sampled)
	}
	// Links come in pairs, one a direction of each trunk.
	r.UpdatesPerTrunkSec = float64(m.UpdateTx) / float64(len(w.util)/2) / dur
	r.RoutingKbps = m.RoutingBits / dur / 1000
	r.UpdatesOriginated = r.Originated - w.originated
	if r.UpdatesOriginated > 0 {
		r.UpdatePeriodPerNode = dur / (float64(r.UpdatesOriginated) / float64(w.nodes))
	}

	r.BufferDrops = led.BufferDrops - w.base.BufferDrops
	r.LoopDrops = led.LoopDrops - w.base.LoopDrops
	r.NoRouteDrops = led.NoRouteDrops - w.base.NoRouteDrops
	r.OutageDrops = led.OutageDrops - w.base.OutageDrops
	r.InFlightPackets, r.InFlightAtOpen = led.InFlight, w.base.InFlight
	if carried := r.OfferedPackets + r.InFlightAtOpen; carried > 0 {
		r.DeliveredRatio = float64(r.DeliveredPackets) / float64(carried)
	}
	return r
}

// MinPathHops is Table 1's "Internode Minimum Path": the mean hop count of
// the shortest path from each source to each of its destinations, weighted
// by the traffic row(s) offers — bps[i] bits per second to dsts[i]. Entries
// that are not positive and unreachable pairs weigh nothing. It is a
// function of the traffic input alone, so the engines compute it once per
// input, not per Report.
func MinPathHops(g *topology.Graph, row func(s topology.NodeID) (dsts []topology.NodeID, bps []float64)) float64 {
	var sum, weight float64
	topology.AllHops(g, func(s topology.NodeID, hops func(topology.NodeID) int) {
		dsts, bps := row(s)
		for i, d := range dsts {
			if bps[i] <= 0 {
				continue
			}
			if h := hops(d); h > 0 {
				sum += bps[i] * float64(h)
				weight += bps[i]
			}
		}
	})
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// Report is a run's summary, the one both engines produce: Table 1's rows
// and the packet rows over the measured window, the packet ledger and the
// update-copy counters from t = 0. Its rendered form (String) is identical
// for a one-shard internal/shard run, every partition of it, and an
// internal/network run offered the same traffic.
type Report struct {
	Metric   string
	Duration float64 // measured window, seconds

	// Table 1 rows.
	InternodeTrafficKbps float64 // delivered user traffic
	RoundTripDelayMs     float64 // 2 × mean one-way delivery delay
	UpdatesPerTrunkSec   float64 // routing packet transmissions per trunk per second
	UpdatePeriodPerNode  float64 // mean seconds between update originations per node
	ActualPathHops       float64 // mean hops per delivered packet
	MinPathHops          float64 // traffic-weighted min-hop path length
	PathRatio            float64 // actual / minimum

	// Congestion and loss over the window: each packet row is the ledger's
	// growth over the window; InFlightPackets is the ledger's in-flight term
	// now and InFlightAtOpen when the window opened. So OfferedPackets +
	// InFlightAtOpen == DeliveredPackets + BufferDrops + LoopDrops +
	// NoRouteDrops + OutageDrops + InFlightPackets.
	OfferedKbps      float64
	DeliveredPackets int64
	OfferedPackets   int64
	BufferDrops      int64 // Figure 13's "dropped packets"
	LoopDrops        int64
	NoRouteDrops     int64
	OutageDrops      int64 // destroyed by trunk failures (queued or on a transmitter)
	InFlightPackets  int64
	InFlightAtOpen   int64
	// DeliveredRatio is the share of the packets the window carried —
	// offered in it or in flight when it opened — that it delivered.
	DeliveredRatio float64

	// Overhead over the window.
	UpdatesOriginated int64
	RoutingKbps       float64

	// Utilization: the trunks' mean sampled utilization while in service,
	// averaged over trunks, and the largest. MaxLinkUtilization is §3.3's
	// hot spot, which TestMilnetLoadSpreading pins.
	MeanLinkUtilization float64
	MaxLinkUtilization  float64

	// Conservation is the packet ledger from t = 0. Generated and Delivered
	// repeat its Offered and Delivered for the frozen benchmark harness,
	// which reads them by those names; read Conservation instead.
	Conservation Conservation
	Generated    int64 `json:"-"`
	Delivered    int64 `json:"-"`

	// Routing updates from t = 0: originated, and their copies enqueued,
	// consumed at a PSN, destroyed by an outage, and in flight.
	Originated      int64
	CtrlGenerated   int64
	CtrlConsumed    int64
	CtrlOutageDrops int64
	CtrlInFlight    int64
}

// String renders the report: the window in the layout of Table 1, then the
// ledger and the update copies from t = 0.
func (r Report) String() string {
	var b strings.Builder
	row := func(name string, format string, v ...any) {
		fmt.Fprintf(&b, "  %-28s "+format+"\n", append([]any{name}, v...)...)
	}
	fmt.Fprintf(&b, "%s (%.0fs measured)\n", r.Metric, r.Duration)
	row("Internode Traffic (kbps)", "%.2f", r.InternodeTrafficKbps)
	row("Round Trip Delay (ms)", "%.2f", r.RoundTripDelayMs)
	row("Rtng. Updates per Trunk/sec", "%.2f", r.UpdatesPerTrunkSec)
	row("Update Period per Node (sec)", "%.2f", r.UpdatePeriodPerNode)
	row("Internode Actual Path (hops)", "%.2f", r.ActualPathHops)
	row("Internode Minimum Path", "%.2f", r.MinPathHops)
	row("Path Ratio (Actual/Min.)", "%.2f", r.PathRatio)
	row("Dropped Packets (buffers)", "%d", r.BufferDrops)
	row("Dropped Packets (outages)", "%d", r.OutageDrops)
	row("Delivered Ratio", "%.4f", r.DeliveredRatio)
	row("Mean Link Utilization", "%.3f", r.MeanLinkUtilization)
	c := r.Conservation
	row("Ledger from t = 0", "offered=%d delivered=%d buffer=%d loop=%d noroute=%d outage=%d in-flight=%d",
		c.Offered, c.Delivered, c.BufferDrops, c.LoopDrops, c.NoRouteDrops, c.OutageDrops, c.InFlight)
	row("Updates from t = 0", "originated=%d copies=%d consumed=%d outage=%d in-flight=%d",
		r.Originated, r.CtrlGenerated, r.CtrlConsumed, r.CtrlOutageDrops, r.CtrlInFlight)
	return b.String()
}
