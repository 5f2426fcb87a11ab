package network

import (
	"math"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// hybridDiamond builds the A-B-D / A-C-D diamond with a small foreground
// flow A→D and a fluid background matrix the caller fills in.
func hybridDiamond(bg *traffic.Matrix, seed int64) (*Network, topology.LinkID, topology.LinkID) {
	g := topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	c, d := g.AddNode("C"), g.AddNode("D")
	ab, _ := g.AddTrunk(a, b, topology.T56)
	ac, _ := g.AddTrunk(a, c, topology.T56)
	g.AddTrunk(b, d, topology.T56)
	g.AddTrunk(c, d, topology.T56)
	fg := traffic.NewMatrix(4)
	fg.Set(a, d, 5000)
	n := New(Config{Graph: g, Matrix: fg, Metric: node.HNSPF, Seed: seed,
		Warmup: 30 * sim.Second, Background: bg})
	return n, ab, ac
}

// The core hybrid claim: fluid background load raises a trunk's advertised
// cost exactly as packet load would, so the metric reroutes foreground
// traffic around congestion no packet ever rendered visible.
func TestBackgroundRaisesCostAndReroutes(t *testing.T) {
	g := topology.Line(2, topology.T56)
	fg := traffic.NewMatrix(2)
	fg.Set(0, 1, 2000)
	bg := traffic.NewMatrix(2)
	bg.Set(0, 1, 44800) // rho = 0.8 on a 56k trunk
	n := New(Config{Graph: g, Matrix: fg, Metric: node.HNSPF, Seed: 3,
		Warmup: 30 * sim.Second, Background: bg})
	l01, _ := g.FindTrunk(0, 1)
	base := New(Config{Graph: g, Matrix: fg, Metric: node.HNSPF, Seed: 3,
		Warmup: 30 * sim.Second})
	n.Run(120 * sim.Second)
	base.Run(120 * sim.Second)
	loaded, idle := n.links[l01].Module.Cost(), base.links[l01].Module.Cost()
	if loaded <= idle {
		t.Errorf("bg-loaded trunk advertises %v, idle one %v — background is invisible to the metric",
			loaded, idle)
	}
	if n.fluid.LinkBPS(l01) != 44800 {
		t.Errorf("background assignment = %v bps, want 44800", n.fluid.LinkBPS(l01))
	}
	// Utilization sampling must see the combined load on the loaded
	// direction: ~0.8 fluid plus a little foreground, where the pure
	// packet run reads near zero. (The mean averages in the idle reverse
	// direction, so the max is the discriminating number.)
	rh, rb := n.Report(), base.Report()
	if rh.MaxLinkUtilization < 0.7 {
		t.Errorf("hybrid max utilization %.3f does not include the fluid background",
			rh.MaxLinkUtilization)
	}
	if rb.MaxLinkUtilization > 0.2 {
		t.Errorf("baseline max utilization %.3f unexpectedly high", rb.MaxLinkUtilization)
	}
}

func TestBackgroundCongestionSteersForeground(t *testing.T) {
	// Background saturates the B path; after a few measurement periods the
	// metric must steer the foreground flow through C.
	bg := traffic.NewMatrix(4)
	bg.Set(0, 1, 50000) // A->B direct: rho ~0.89 on A-B
	n, ab, ac := hybridDiamond(bg, 11)
	n.Run(300 * sim.Second)
	if n.links[ab].Module.Cost() <= n.links[ac].Module.Cost() {
		t.Errorf("A-B carries the background (cost %v) and should be pricier than A-C (cost %v)",
			n.links[ab].Module.Cost(), n.links[ac].Module.Cost())
	}
	r := n.Report()
	if r.DeliveredRatio < 0.95 {
		t.Errorf("foreground delivery %.3f — background must not destroy the foreground", r.DeliveredRatio)
	}
	// The conservation ledger covers only real (foreground) packets and
	// must stay exact: the fluid never enters it.
	if err := n.Conservation().Err(); err != nil {
		t.Error(err)
	}
}

// Saturated trunk: background demand beyond capacity clamps at the rho
// ceiling — large finite costs, a finite report, no NaN/Inf anywhere.
func TestBackgroundSaturationClamps(t *testing.T) {
	g := topology.Line(2, topology.T56)
	fg := traffic.NewMatrix(2)
	fg.Set(0, 1, 2000)
	bg := traffic.NewMatrix(2)
	bg.Set(0, 1, 200000) // 3.6× the trunk
	n := New(Config{Graph: g, Matrix: fg, Metric: node.HNSPF, Seed: 5,
		Warmup: 30 * sim.Second, Background: bg})
	n.Run(180 * sim.Second)
	l01, _ := g.FindTrunk(0, 1)
	c := n.links[l01].Module.Cost()
	if math.IsInf(c, 0) || math.IsNaN(c) {
		t.Fatalf("saturated trunk advertises %v", c)
	}
	r := n.Report()
	if math.IsNaN(r.MeanLinkUtilization) || math.IsInf(r.MaxLinkUtilization, 0) {
		t.Errorf("report poisoned by saturation: %+v", r)
	}
	if err := n.Conservation().Err(); err != nil {
		t.Error(err)
	}
}

// Trunk down with a live background flow: the stranded fluid re-routes at
// the next epoch boundary (not immediately), and the packet conservation
// ledger — which the fluid never touches — stays exact through the outage.
func TestBackgroundReroutesAfterTrunkDown(t *testing.T) {
	bg := traffic.NewMatrix(4)
	bg.Set(0, 3, 20000) // A->D background via one of the two paths
	n, ab, ac := hybridDiamond(bg, 7)
	n.Run(55 * sim.Second)

	carrier, alt := ab, ac
	if n.fluid.LinkBPS(ab) == 0 {
		carrier, alt = ac, ab
	}
	if n.fluid.LinkBPS(carrier) != 20000 {
		t.Fatalf("setup: background not on a single path (ab=%v ac=%v)",
			n.fluid.LinkBPS(ab), n.fluid.LinkBPS(ac))
	}

	n.SetTrunkDown(carrier)
	// Before the next epoch the fluid is stranded on the dead trunk.
	if got := n.fluid.LinkBPS(carrier); got != 20000 {
		t.Errorf("fluid re-routed before the epoch boundary: carrier at %v bps", got)
	}
	n.Run(66 * sim.Second) // cross the 60 s epoch
	if got := n.fluid.LinkBPS(carrier); got != 0 {
		t.Errorf("dead trunk still carries %v bps of fluid after the epoch", got)
	}
	if got := n.fluid.LinkBPS(alt); got != 20000 {
		t.Errorf("surviving path carries %v bps, want the whole 20000", got)
	}
	if err := n.Conservation().Err(); err != nil {
		t.Errorf("outage with live background broke the packet ledger: %v", err)
	}

	// Cut the last path too: the demand becomes unroutable, no phantom load.
	n.SetTrunkDown(alt)
	n.Run(80 * sim.Second)
	for i := 0; i < n.g.NumLinks(); i++ {
		if got := n.fluid.LinkBPS(topology.LinkID(i)); got != 0 {
			t.Errorf("link %d carries %v bps of fluid with both paths dead", i, got)
		}
	}
	if err := n.Conservation().Err(); err != nil {
		t.Error(err)
	}

	// Repair: the next epoch routes the background again.
	n.SetTrunkUp(carrier)
	n.Run(95 * sim.Second)
	if got := n.fluid.LinkBPS(carrier); got != 20000 {
		t.Errorf("repaired path carries %v bps after the epoch, want the whole 20000", got)
	}
	if err := n.TransmitterAudit(); err != nil {
		t.Error(err)
	}
}

// A background surge is immediate on the current fluid routes.
func TestBackgroundSurge(t *testing.T) {
	bg := traffic.NewMatrix(4)
	bg.Set(0, 3, 10000)
	n, ab, ac := hybridDiamond(bg, 9)
	n.Run(20 * sim.Second)
	carrier := ab
	if n.fluid.LinkBPS(ab) == 0 {
		carrier = ac
	}
	n.ScaleBackground(3)
	if got := n.fluid.LinkBPS(carrier); got != 30000 {
		t.Errorf("surged carrier = %v bps, want 30000 immediately", got)
	}
	if !panics(func() { n.ScaleBackground(0) }) {
		t.Error("ScaleBackground(0) should panic")
	}
	base := New(Config{Graph: n.g, Matrix: n.cfg.Matrix, Metric: node.HNSPF, Seed: 9})
	if !panics(func() { base.ScaleBackground(2) }) {
		t.Error("ScaleBackground without a background matrix should panic")
	}
}

// Hybrid runs are deterministic: same seed, same everything.
func TestHybridDeterminism(t *testing.T) {
	run := func() Report {
		bg := traffic.NewMatrix(4)
		bg.Set(0, 3, 30000)
		n, _, _ := hybridDiamond(bg, 21)
		n.Run(120 * sim.Second)
		return n.Report()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed hybrid runs differ:\n%v\nvs\n%v", a, b)
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return
}
