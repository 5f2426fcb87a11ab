package core

import "repro/internal/queueing"

// Ablations: each Option disables one of the HNM's stabilization
// mechanisms (§4.3), so experiments can demonstrate what that mechanism
// buys. The paper motivates each one:
//
//   - averaging "increases the period of routing oscillations, thus
//     reducing routing overhead";
//   - the movement limits "are essential for limiting the amplitude of
//     routing oscillations";
//   - the asymmetric down-limit makes the cost march up one unit per
//     oscillation cycle, spreading equal-cost lines apart (the epsilon
//     problem, §5.4);
//   - the minimum-change threshold "has the effect of reducing both
//     routing related computation and routing-related link bandwidth
//     consumption".

// Option modifies a Module at construction time.
type Option func(*options)

type options struct {
	noAveraging   bool
	noLimits      bool
	symmetricDown bool
	noMinChange   bool
	md1Table      bool
}

// WithoutAveraging disables the .5/.5 recursive utilization filter; the
// metric reacts to each period's raw sample.
func WithoutAveraging() Option { return func(o *options) { o.noAveraging = true } }

// WithoutMovementLimits removes the per-period bounds on cost movement —
// the metric may swing between floor and ceiling in one update, like the
// delay metric.
func WithoutMovementLimits() Option { return func(o *options) { o.noLimits = true } }

// WithSymmetricLimits makes the down-limit equal to the up-limit,
// disabling the §5.4 one-unit upward march.
func WithSymmetricLimits() Option { return func(o *options) { o.symmetricDown = true } }

// WithoutMinChange disables the significance threshold: every cost change,
// however small, generates a routing update.
func WithoutMinChange() Option { return func(o *options) { o.noMinChange = true } }

// WithMD1Table swaps the delay→utilization table for the M/D/1 inversion —
// the sensitivity check for the paper's "simple M/M/1 queueing model...
// for illustrative purposes". M/D/1 attributes the same measured delay to
// a higher utilization, so the metric ramps earlier; everything else
// (bounds, limits, thresholds) is untouched.
func WithMD1Table() Option { return func(o *options) { o.md1Table = true } }

// NewModuleOptions creates an HNM with ablation options applied; with no
// options it is identical to NewModuleParams.
func NewModuleOptions(p LineParams, bandwidth, propDelay float64, opts ...Option) *Module {
	m := NewModuleParams(p, bandwidth, propDelay)
	for _, o := range opts {
		o(&m.opts)
	}
	if m.opts.md1Table {
		s := m.table.ServiceTime()
		m.table = queueing.NewTable(s, s/100, s*200, queueing.UtilizationFromDelayMD1)
	}
	return m
}
