// Package metric implements the baseline link metrics the paper compares
// the HNM against:
//
//   - DSPF: the measured-delay metric of the May 1979 SPF algorithm (§2.2),
//     with its bias floor and decaying significance threshold;
//   - MinHop: a static unit metric (§5.3's min-hop baseline).
//
// The original 1969 metric — instantaneous output queue length plus
// QueueLengthConstant (§2.1) — is computed inline by the distributed
// Bellman-Ford baseline (internal/node's distvec.go).
//
// All metrics share the Update(measuredDelay) → (cost, report) contract of
// internal/core.Module, so the node layer can swap them freely.
package metric

import (
	"math"

	"repro/internal/queueing"
	"repro/internal/topology"
)

// DSPFUnit is the size of one D-SPF routing unit in seconds. It is chosen
// so that an idle zero-propagation 56 kb/s line (whose measured delay is
// one 600-bit transmission time, 10.7 ms) reports the paper's bias of
// 2 units (Figure 4: "2 units... the delay metric's bias value for a
// 56 kb/s line").
const DSPFUnit = 0.0107142857 / 2 // ≈ 5.357 ms

// DSPFCeilingRho is the utilization whose M/M/1 delay caps the D-SPF cost.
// At 0.95 a 56 kb/s line's delay is 20× its idle delay — the paper's "a
// highly loaded line can appear 20 times less attractive than a lightly
// loaded one" (§3.2).
const DSPFCeilingRho = 0.95

// DSPF significance-threshold schedule (§2.2): the threshold starts at
// 64 ms and "gets adjusted downward each time it is not satisfied... in
// such a way that the maximum time between routing updates for each PSN is
// 50 seconds" — i.e. minus 12.8 ms per 10-second period, reaching zero on
// the fifth.
const (
	dspfThreshold0    = 0.064  // seconds
	dspfThresholdStep = 0.0128 // seconds per unsatisfied period
)

// DSPF is the measured-delay link metric. Costs are in DSPF routing units.
type DSPF struct {
	bias      float64 // floor: idle transmission + propagation, in units
	ceiling   float64 // cap, in units
	propDelay float64 // seconds, added to the measured (queueing+transmission) delay
	threshold float64 // current significance threshold, seconds
	last      float64 // last reported cost, units
	started   bool
}

// NewDSPF creates the delay metric for a link of the given line type and
// configured propagation delay in seconds.
func NewDSPF(lt topology.LineType, propDelay float64) *DSPF {
	if propDelay < 0 {
		panic("metric: negative propagation delay")
	}
	s := queueing.ServiceTime(lt.Bandwidth())
	d := &DSPF{
		bias:      (s + propDelay) / DSPFUnit,
		ceiling:   (queueing.MM1Delay(s, DSPFCeilingRho) + propDelay) / DSPFUnit,
		propDelay: propDelay,
	}
	d.Reset()
	return d
}

// Bias returns the metric's lower bound in units.
func (d *DSPF) Bias() float64 { return d.bias }

// Floor returns the metric's lower bound (the bias), satisfying the
// node.CostModule contract.
func (d *DSPF) Floor() float64 { return d.bias }

// Ceiling returns the metric's upper bound in units.
func (d *DSPF) Ceiling() float64 { return d.ceiling }

// Cost returns the last reported cost in units.
func (d *DSPF) Cost() float64 { return d.last }

// Reset reinitializes to the state of a line coming up: the delay metric
// has no ease-in, so the link advertises its bias and reports its first
// measurement, whatever it reads.
func (d *DSPF) Reset() {
	d.last = d.bias
	d.threshold = dspfThreshold0
	d.started = false
}

// Settle puts the metric in the steady state of an idle line that has been
// up all along: the bias, counted as already reported with a fresh
// threshold, so the first period reports only a significant change.
func (d *DSPF) Settle() {
	d.last = d.bias
	d.threshold = dspfThreshold0
	d.started = true
}

// Update processes one 10-second measurement period. measuredDelay is the
// average per-packet queueing + transmission + processing delay in seconds
// (propagation is tabled and added here). It returns the cost and whether
// the significance criterion fired.
func (d *DSPF) Update(measuredDelay float64) (cost float64, report bool) {
	c := (measuredDelay + d.propDelay) / DSPFUnit
	if c < d.bias {
		c = d.bias
	}
	if c > d.ceiling {
		c = d.ceiling
	}
	if !d.started {
		d.started = true
		d.last = c
		d.threshold = dspfThreshold0
		return c, true
	}
	deltaSeconds := math.Abs(c-d.last) * DSPFUnit
	if deltaSeconds >= d.threshold {
		d.last = c
		d.threshold = dspfThreshold0
		return c, true
	}
	// Not significant: decay the threshold so an update is forced within
	// five periods (50 s) even on a quiet link.
	d.threshold -= dspfThresholdStep
	if d.threshold <= 1e-9 {
		d.last = c
		d.threshold = dspfThreshold0
		return c, true
	}
	return d.last, false
}

// RawCost returns the D-SPF cost a link would settle at for a given
// utilization under the M/M/1 model — the Figure 4 metric map.
func (d *DSPF) RawCost(serviceTime, utilization float64) float64 {
	c := (queueing.MM1Delay(serviceTime, utilization) + d.propDelay) / DSPFUnit
	if c < d.bias {
		c = d.bias
	}
	if c > d.ceiling {
		c = d.ceiling
	}
	return c
}

// MinHop is the static unit metric: every link always costs 1. It reports
// once after Reset, so a repaired line's cost is flooded, and never after
// Settle: every PSN boots holding the unit costs already.
type MinHop struct {
	started bool
}

// NewMinHop returns a min-hop metric.
func NewMinHop() *MinHop { return &MinHop{} }

// Cost returns 1.
func (m *MinHop) Cost() float64 { return 1 }

// Floor returns 1: the static metric's only value.
func (m *MinHop) Floor() float64 { return 1 }

// Reset returns the metric to the state of a line coming up: its next
// Update reports.
func (m *MinHop) Reset() { m.started = false }

// Settle counts the unit cost as already reported.
func (m *MinHop) Settle() { m.started = true }

// Update always returns cost 1; it reports only on the first call after
// Reset.
func (m *MinHop) Update(float64) (float64, bool) {
	first := !m.started
	m.started = true
	return 1, first
}

// QueueLengthConstant is the positive constant the 1969 algorithm added to
// the instantaneous queue length; it "helped to alleviate" oscillation
// (§2.1).
const QueueLengthConstant = 4
