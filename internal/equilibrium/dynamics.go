package equilibrium

import (
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/topology"
)

// MetricMap converts link utilization into a reported cost in hops (the
// link's cost divided by the ambient one-hop cost) — Figures 4 and 5 in
// normalized form.
type MetricMap func(utilization float64) float64

// HNSPFMap returns the normalized HN-SPF metric map for a line type and
// configured propagation delay. The divisor is one hop: the idle cost of a
// zero-propagation terrestrial line of the same speed (30 units for
// 56 kb/s).
func HNSPFMap(lt topology.LineType, propDelay float64) MetricMap {
	m := core.NewModule(lt, propDelay)
	hop := core.DefaultParams(lt).MinCost
	return func(u float64) float64 { return m.RawCost(u) / hop }
}

// DSPFMap returns the normalized D-SPF metric map: M/M/1 delay at the
// utilization, in units of the line's idle (bias) cost — Figure 4's
// normalization ("2 units ... the delay metric's bias value for a 56 kb/s
// line").
func DSPFMap(lt topology.LineType, propDelay float64) MetricMap {
	d := metric.NewDSPF(lt, propDelay)
	s := queueing.ServiceTime(lt.Bandwidth())
	idle := metric.NewDSPF(lt, 0).Bias() // one hop = idle zero-prop line
	return func(u float64) float64 { return d.RawCost(s, u) / idle }
}

// MinHopMap is the static metric: always one hop.
func MinHopMap() MetricMap { return func(float64) float64 { return 1 } }

// Equilibrium solves the §5.3 fixed point for the average link: the
// reported cost w at which the cost the metric computes from the resulting
// utilization equals w. offered is the utilization the link would see
// under min-hop routing (1.0 = exactly full when carrying its base
// traffic); the utilization at cost w is offered × Response(w), capped at
// 1.
//
// Both maps are monotone (response non-increasing, metric non-decreasing),
// so g(w) = metric(util(w)) − w is non-increasing and bisection finds the
// crossing. Returns the equilibrium cost (hops) and utilization.
func (mo *Model) Equilibrium(m MetricMap, offered float64) (cost, utilization float64) {
	util := func(w float64) float64 {
		u := offered * mo.Response(w)
		if u > 1 {
			u = 1
		}
		return u
	}
	g := func(w float64) float64 { return m(util(w)) - w }

	lo, hi := 1.0, mo.MaxShedCost()+2
	if g(lo) <= 0 {
		// The metric is satisfied at ambient cost (light load).
		return lo, util(lo)
	}
	if g(hi) >= 0 {
		// Even shedding everything cannot bring the cost down (the metric
		// saturates): the equilibrium is the metric's cap.
		return m(util(hi)), util(hi)
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	w := (lo + hi) / 2
	return w, util(w)
}

// EquilibriumSweep computes equilibrium utilization across offered loads —
// Figure 10's curves. The returned series maps offered load (min-hop
// utilization) to equilibrium utilization.
func (mo *Model) EquilibriumSweep(name string, m MetricMap, maxOffered, step float64) *stats.Series {
	s := stats.NewSeries(name)
	for f := step; f <= maxOffered+1e-9; f += step {
		_, u := mo.Equilibrium(m, f)
		s.Add(f, u)
	}
	return s
}

// CobwebOptions control the dynamic-behaviour iteration of §5.4.
type CobwebOptions struct {
	// Averaging applies the HNM's .5/.5 recursive filter to utilization.
	Averaging bool
	// LimitUp/LimitDown bound the per-period cost movement in hops
	// (0 = unlimited, as with D-SPF).
	LimitUp, LimitDown float64
}

// CobwebPoint is one period of the dynamic iteration.
type CobwebPoint struct {
	Period      int
	Cost        float64 // reported cost at the start of the period, hops
	Utilization float64 // resulting link utilization
}

// Cobweb traces the dynamic behaviour of Figures 11 and 12: starting from
// reported cost w0, each period maps cost → traffic (response map) →
// utilization → next reported cost (metric map), with optional averaging
// and movement limits. The trace has steps+1 points.
func (mo *Model) Cobweb(m MetricMap, offered, w0 float64, steps int, opt CobwebOptions) []CobwebPoint {
	if steps < 0 {
		panic("equilibrium: negative steps")
	}
	trace := make([]CobwebPoint, 0, steps+1)
	w := w0
	avg := 0.0
	first := true
	for i := 0; i <= steps; i++ {
		u := offered * mo.Response(w)
		if u > 1 {
			u = 1
		}
		trace = append(trace, CobwebPoint{Period: i, Cost: w, Utilization: u})
		est := u
		if opt.Averaging {
			if first {
				avg = u
				first = false
			} else {
				avg = 0.5*u + 0.5*avg
			}
			est = avg
		}
		next := m(est)
		if opt.LimitUp > 0 && next > w+opt.LimitUp {
			next = w + opt.LimitUp
		}
		if opt.LimitDown > 0 && next < w-opt.LimitDown {
			next = w - opt.LimitDown
		}
		w = next
	}
	return trace
}

// Amplitude returns the peak-to-peak swing of the cost over the last half
// of a cobweb trace — the oscillation amplitude after transients.
func Amplitude(trace []CobwebPoint) float64 {
	if len(trace) == 0 {
		return 0
	}
	lo, hi := trace[len(trace)/2].Cost, trace[len(trace)/2].Cost
	for _, p := range trace[len(trace)/2:] {
		if p.Cost < lo {
			lo = p.Cost
		}
		if p.Cost > hi {
			hi = p.Cost
		}
	}
	return hi - lo
}
