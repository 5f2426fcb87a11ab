package network

import (
	"fmt"
	"strings"

	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Report carries the network-wide performance indicators of Table 1 plus
// the congestion and overhead counters used by Figures 1 and 13. All
// values cover the post-warmup measurement window.
type Report struct {
	Metric   string
	Duration float64 // measured window, seconds

	// Table 1 rows.
	InternodeTrafficKbps float64 // delivered user traffic
	RoundTripDelayMs     float64 // 2 × mean one-way delivery delay
	UpdatesPerTrunkSec   float64 // routing update transmissions per trunk per second
	UpdatePeriodPerNode  float64 // mean seconds between update originations per node
	ActualPathHops       float64 // mean hops per delivered packet
	MinPathHops          float64 // traffic-weighted min-hop path length
	PathRatio            float64 // actual / minimum

	// Congestion and loss. All packet counters cover packets generated
	// inside the measurement window, so they satisfy the conservation
	// identity OfferedPackets == DeliveredPackets + BufferDrops + LoopDrops
	// + NoRouteDrops + OutageDrops + InFlightPackets.
	OfferedKbps      float64
	DeliveredPackets int64
	OfferedPackets   int64
	BufferDrops      int64 // Figure 13's "dropped packets"
	LoopDrops        int64
	NoRouteDrops     int64
	OutageDrops      int64 // destroyed by trunk failures (queued or in flight)
	InFlightPackets  int64 // still in the network at report time
	DeliveredRatio   float64

	// Overhead.
	UpdatesOriginated int64
	RoutingKbps       float64
	SPFRecomputes     int64 // route computations across all PSNs' routers: boot SPF runs plus incremental repairs

	// Utilization.
	MeanLinkUtilization float64
	MaxLinkUtilization  float64

	// Delay spread: 2 × one-way standard deviation and 2 × one-way 95th
	// percentile, in ms.
	DelayMsSigma float64
	DelayMsP95   float64
}

// Report computes the indicators at the current simulation time.
func (n *Network) Report() Report {
	dur := (n.kernel.Now() - n.measuredSince).Seconds()
	r := Report{
		Metric:   n.cfg.Metric.String(),
		Duration: dur,
	}
	if dur <= 0 {
		return r
	}
	r.InternodeTrafficKbps = n.deliveredBits / dur / 1000
	r.OfferedKbps = n.offeredBits / dur / 1000
	r.RoundTripDelayMs = 2 * n.delay.Mean() * 1000
	r.DelayMsSigma = 2 * n.delay.StdDev() * 1000
	r.DelayMsP95 = 2 * n.delayHist.Quantile(0.95) * 1000
	r.ActualPathHops = n.hops.Mean()
	r.MinPathHops = n.minPathHops()
	if r.MinPathHops > 0 {
		r.PathRatio = r.ActualPathHops / r.MinPathHops
	}
	r.UpdatesPerTrunkSec = float64(n.updateTx.Value()) / float64(n.g.NumTrunks()) / dur
	if n.updatesOrig.Value() > 0 {
		r.UpdatePeriodPerNode = dur / (float64(n.updatesOrig.Value()) / float64(n.g.NumNodes()))
	}
	cons := n.Conservation()
	r.DeliveredPackets = cons.Delivered
	r.OfferedPackets = cons.Offered
	r.BufferDrops = cons.BufferDrops
	r.LoopDrops = cons.LoopDrops
	r.NoRouteDrops = cons.NoRouteDrops
	r.OutageDrops = cons.OutageDrops
	r.InFlightPackets = cons.InFlight
	if r.OfferedPackets > 0 {
		r.DeliveredRatio = float64(r.DeliveredPackets) / float64(r.OfferedPackets)
	}
	r.UpdatesOriginated = n.updatesOrig.Value()
	r.RoutingKbps = n.routingBits / dur / 1000
	for _, p := range n.psns {
		r.SPFRecomputes += p.recomputes()
	}
	var util stats.Welford
	maxU := 0.0
	for _, ls := range n.links {
		if ls.util.N() > 0 {
			util.Add(ls.util.Mean())
			if m := ls.util.Mean(); m > maxU {
				maxU = m
			}
		}
	}
	r.MeanLinkUtilization = util.Mean()
	r.MaxLinkUtilization = maxU
	return r
}

// minPathHops is the traffic-weighted mean minimum (hop) path length over
// the matrix — Table 1's "Internode Minimum Path".
func (n *Network) minPathHops() float64 {
	var sum, weight float64
	for s := 0; s < n.g.NumNodes(); s++ {
		src := topology.NodeID(s)
		tree := spf.HopTree(n.g, src)
		for d := 0; d < n.g.NumNodes(); d++ {
			dst := topology.NodeID(d)
			rate := n.cfg.Matrix.Rate(src, dst)
			if rate <= 0 {
				continue
			}
			if h := tree.Hops(dst); h > 0 {
				sum += rate * float64(h)
				weight += rate
			}
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// String renders the report in the layout of Table 1.
func (r Report) String() string {
	var b strings.Builder
	row := func(name string, format string, v any) {
		fmt.Fprintf(&b, "  %-28s "+format+"\n", name, v)
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
	return b.String()
}
