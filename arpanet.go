// Package arpanet is a from-scratch reproduction of "The Revised ARPANET
// Routing Metric" (Khanna & Zinky, SIGCOMM 1989): the Hop-Normalized SPF
// link metric (HN-SPF) that replaced the ARPANET's delay metric in July
// 1987, together with everything needed to reproduce the paper's
// evaluation — a packet-level discrete-event simulator of ARPANET PSNs
// with SPF routing and update flooding, the D-SPF and min-hop baselines,
// the original 1969 distributed Bellman-Ford algorithm, and the §5
// analytic equilibrium model.
//
// Three entry points:
//
//   - LinkMetric is the revised metric itself (Figure 3's HNM), usable in
//     any router that can feed it a measured delay every ten seconds.
//   - Run runs a packet-level network under a chosen metric, optionally
//     under a fault-injection script, and produces the Table 1 indicators.
//   - Analysis is the §5 equilibrium model: network response maps, metric
//     maps, fixed points and cobweb dynamics (Figures 7-12).
//
// A minimal session:
//
//	topo := arpanet.Arpanet1987()
//	tm := topo.GravityTraffic(arpanet.ArpanetWeights(), 420_000)
//	res, err := arpanet.Run(arpanet.Spec{Topology: topo, Traffic: tm, WarmupSeconds: 100, Seconds: 700})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.Report)
package arpanet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/topology"
)

// Metric selects the link metric a run or an analysis uses; its String
// method returns the paper's name for it.
type Metric = node.MetricKind

// The three metrics the paper compares in §5, plus the 1969 baseline.
const (
	// HNSPF is the revised metric — the paper's contribution.
	HNSPF = node.HNSPF
	// DSPF is the measured-delay metric of May 1979 that HN-SPF replaced.
	DSPF = node.DSPF
	// MinHop is static shortest-hop routing.
	MinHop = node.MinHop
	// BF1969 is the original 1969 algorithm (§2.1): distributed
	// Bellman-Ford with tables exchanged every 2/3 second and the
	// instantaneous queue length plus a constant as the metric. Valid for
	// Run only; it has no SPF metric map for Analysis.
	BF1969 = node.BF1969
)

// LineKind is one of the eight trunk line types (§4.1). T = terrestrial,
// S = satellite; the number is kb/s (112 models a 2×56 multi-trunk line).
type LineKind int

// The eight line types.
const (
	T9_6 LineKind = iota
	S9_6
	T19_2
	T50
	T56
	S56
	T112
	S112
)

func (k LineKind) lt() topology.LineType {
	if k < T9_6 || k > S112 {
		panic(fmt.Sprintf("arpanet: unknown line kind %d", int(k)))
	}
	return topology.LineType(k)
}

// String returns the short name, e.g. "56T".
func (k LineKind) String() string { return k.lt().String() }

// BandwidthBPS returns the trunk bandwidth in bits per second.
func (k LineKind) BandwidthBPS() float64 { return k.lt().Bandwidth() }

// Satellite reports whether the line is a satellite link.
func (k LineKind) Satellite() bool { return k.lt().Satellite() }

// LinkMetric is the Hop-Normalized SPF Module (HNM) for one link — the
// revised metric of Figure 3. Feed it the link's average measured delay
// (queueing + transmission + processing, seconds) once per ten-second
// measurement period; it returns the cost to advertise and whether the
// change is significant enough to flood.
//
// Costs are in routing units: 30 units is one "hop" (an idle
// zero-propagation 56 kb/s terrestrial line), and a link can never look
// more than two hops worse than idle.
type LinkMetric struct {
	m *core.Module
}

// NewLinkMetric creates the HNM for a link of the given kind and one-way
// propagation delay in seconds.
func NewLinkMetric(kind LineKind, propDelaySeconds float64) *LinkMetric {
	return &LinkMetric{m: core.NewModule(kind.lt(), propDelaySeconds)}
}

// Update processes one measurement period and returns the advertised cost
// and whether to generate a routing update.
func (l *LinkMetric) Update(measuredDelaySeconds float64) (cost float64, report bool) {
	return l.m.Update(measuredDelaySeconds)
}

// Cost returns the currently advertised cost in routing units.
func (l *LinkMetric) Cost() float64 { return l.m.Cost() }

// Floor returns the link's minimum cost (its cost when idle).
func (l *LinkMetric) Floor() float64 { return l.m.Floor() }

// Ceiling returns the link's maximum cost.
func (l *LinkMetric) Ceiling() float64 { return l.m.Ceiling() }

// Reset returns the metric to the link-up state: the link advertises its
// maximum cost and "eases in" (§5.4).
func (l *LinkMetric) Reset() { l.m.Reset() }

// CostAt returns the steady-state cost the metric assigns to a given
// utilization — the Figure 4/5 metric curve (no averaging or movement
// limits applied).
func (l *LinkMetric) CostAt(utilization float64) float64 { return l.m.RawCost(utilization) }

// HopCost is the routing cost of one hop, in routing units.
const HopCost = core.HopCost

// HNMOption disables one of the HNM's stabilization mechanisms for
// ablation experiments (see Spec.Ablations). The paper motivates each
// mechanism in §4.3 and §5.4; the ablation benchmarks demonstrate what it
// buys.
type HNMOption = core.Option

// HNMWithoutAveraging disables the .5/.5 recursive utilization filter.
func HNMWithoutAveraging() HNMOption { return core.WithoutAveraging() }

// HNMWithoutMovementLimits removes the per-period cost-movement bounds, so
// the metric can swing floor-to-ceiling in one update like the delay
// metric.
func HNMWithoutMovementLimits() HNMOption { return core.WithoutMovementLimits() }

// HNMWithSymmetricLimits equalizes the up/down movement limits, disabling
// the §5.4 one-unit upward march.
func HNMWithSymmetricLimits() HNMOption { return core.WithSymmetricLimits() }

// HNMWithoutMinChange disables the minimum-change threshold: every cost
// change floods an update.
func HNMWithoutMinChange() HNMOption { return core.WithoutMinChange() }

// HNMWithMD1Table swaps the HNM's delay→utilization table from the
// paper's M/M/1 inversion to M/D/1 — the sensitivity check for the
// queueing-model assumption. The metric ramps earlier; bounds, limits and
// thresholds are untouched.
func HNMWithMD1Table() HNMOption { return core.WithMD1Table() }
