package network

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func lightRing(metric node.MetricKind, seed int64) *Network {
	return New(lightRingConfig(metric, seed))
}

func lightRingConfig(metric node.MetricKind, seed int64) Config {
	g := topology.Ring(6, topology.T56)
	m := traffic.Uniform(g, 60000) // 60 kbps across 30 pairs: light
	return Config{Graph: g, Matrix: m, Metric: metric, Seed: seed, Warmup: 30 * sim.Second}
}

func TestLightLoadDelivery(t *testing.T) {
	for _, k := range []node.MetricKind{node.HNSPF, node.DSPF, node.MinHop} {
		n := lightRing(k, 1)
		n.Run(180 * sim.Second)
		r := n.Report()
		if r.DeliveredRatio < 0.99 {
			t.Errorf("%v: delivered ratio %.4f, want >= 0.99 at light load", k, r.DeliveredRatio)
		}
		if r.BufferDrops > 0 {
			t.Errorf("%v: %d buffer drops at light load", k, r.BufferDrops)
		}
		// One-way delay on an idle 56k ring: a few transmission times.
		if r.RoundTripDelayMs < 5 || r.RoundTripDelayMs > 400 {
			t.Errorf("%v: round-trip delay %.1f ms implausible", k, r.RoundTripDelayMs)
		}
		if r.ActualPathHops < 1 || r.ActualPathHops > 3.5 {
			t.Errorf("%v: actual path %.2f hops implausible on a 6-ring", k, r.ActualPathHops)
		}
		if r.InternodeTrafficKbps < 50 || r.InternodeTrafficKbps > 70 {
			t.Errorf("%v: carried %.1f kbps, offered 60", k, r.InternodeTrafficKbps)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := lightRing(node.HNSPF, 7)
	b := lightRing(node.HNSPF, 7)
	a.Run(120 * sim.Second)
	b.Run(120 * sim.Second)
	ra, rb := a.Report(), b.Report()
	if ra != rb {
		t.Errorf("same seed gave different reports:\n%v\nvs\n%v", ra, rb)
	}
	c := lightRing(node.HNSPF, 8)
	c.Run(120 * sim.Second)
	if c.Report() == ra {
		t.Error("different seeds gave byte-identical reports (suspicious)")
	}
}

func TestReportString(t *testing.T) {
	n := lightRing(node.DSPF, 2)
	n.Run(90 * sim.Second)
	s := n.Report().String()
	for _, want := range []string{"D-SPF", "Internode Traffic", "Path Ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRoutingOverheadCounted(t *testing.T) {
	n := lightRing(node.DSPF, 3)
	n.Run(300 * sim.Second)
	r := n.Report()
	if r.UpdatesOriginated == 0 {
		t.Fatal("no routing updates originated in 300 s")
	}
	// §2.2: each PSN must update at least every 50 s (the mean over the
	// window can exceed 50 slightly from edge effects at the boundaries).
	if r.UpdatePeriodPerNode > 56 {
		t.Errorf("update period per node = %.1f s, want <= ~50", r.UpdatePeriodPerNode)
	}
	if r.UpdatesPerTrunkSec <= 0 {
		t.Error("updates per trunk/sec should be positive")
	}
	if r.RoutingKbps <= 0 {
		t.Error("routing overhead bandwidth should be positive")
	}
	if st := n.routers.Stats(); st.Accepted == 0 || st.Repairs == 0 {
		t.Errorf("routers accepted %d updates and repaired %d trees; both should be counted", st.Accepted, st.Repairs)
	}
}

func TestConfigPanics(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	for name, cfg := range map[string]Config{
		"nil graph":       {Matrix: traffic.NewMatrix(4)},
		"nil matrix":      {Graph: g},
		"matrix mismatch": {Graph: g, Matrix: traffic.NewMatrix(7)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			New(cfg)
		})
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	// 4-ring: fail one trunk; everything must still be delivered via the
	// long way after convergence.
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 40000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 4, Warmup: 60 * sim.Second})
	l, _ := g.FindTrunk(0, 1)
	n.Kernel().Schedule(30*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	n.Run(240 * sim.Second)
	r := n.Report()
	if r.DeliveredRatio < 0.99 {
		t.Errorf("delivered ratio %.4f after failure, want >= 0.99", r.DeliveredRatio)
	}
	if r.NoRouteDrops > 0 {
		t.Errorf("%d no-route drops after convergence window", r.NoRouteDrops)
	}
	// The failed link must be advertised at DownCost.
	if c := n.links[l].Module.Cost(); c == node.DownCost {
		t.Log("module cost unchanged (down is flooded, not stored in module) — expected")
	}
}

func TestLinkRecoveryEasesIn(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	m := traffic.Uniform(g, 40000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.HNSPF, Seed: 5})
	l, _ := g.FindTrunk(0, 1)
	n.Kernel().Schedule(20*sim.Second, func(sim.Time) { n.SetTrunkDown(l) })
	// Bring the link up just after a measurement-tick boundary so we can
	// observe the advertised cost before the next tick starts easing it in.
	n.Kernel().Schedule(60*sim.Second+sim.Millisecond, func(sim.Time) { n.SetTrunkUp(l) })
	n.Run(60*sim.Second + 2*sim.Millisecond)
	// Just after coming up, an HN-SPF link advertises its maximum cost.
	if c := n.links[l].Module.Cost(); c != 90 {
		t.Errorf("cost just after link-up = %v, want 90 (ease-in)", c)
	}
	n.Run(240 * sim.Second)
	// After easing in under light load it returns to its floor.
	if c := n.links[l].Module.Cost(); c > 35 {
		t.Errorf("cost after ease-in = %v, want near the floor", c)
	}
}

// oscillationRun drives the Figure 1 scenario and returns the two
// inter-region trunk utilization series (10-sample smoothed).
func oscillationRun(t *testing.T, kind node.MetricKind) (a, b *stats.Series, rep Report) {
	t.Helper()
	// Five nodes per region: 25 cross pairs, each ~4%% of a trunk, giving
	// the metric the "several small node-to-node flows" it load-shares
	// with (§4.5).
	g, la, lb := topology.TwoRegion(5, topology.T56)
	west := func(n topology.NodeID) bool { return strings.HasPrefix(g.Node(n).Name, "W") }
	// Inter-region offered load ≈ 85% of ONE trunk in each direction:
	// enough that a single trunk saturates, comfortable for two.
	m := traffic.Hotspot(g, west, 120000, 0.80)
	cfg := Config{Graph: g, Matrix: m, Metric: kind, Seed: 11, Warmup: 100 * sim.Second}
	sa, sb := track(&cfg, la).Util, track(&cfg, lb).Util
	n := New(cfg)
	n.Run(700 * sim.Second)
	return smooth(sa, 10), smooth(sb, 10), n.Report()
}

// smooth returns a series of k-sample means.
func smooth(s *stats.Series, k int) *stats.Series {
	out := stats.NewSeries(s.Name)
	for i := 0; i+k <= s.Len(); i += k {
		sum := 0.0
		for j := i; j < i+k; j++ {
			sum += s.Y[j]
		}
		out.Add(s.X[i+k-1], sum/float64(k))
	}
	return out
}

// swing measures oscillation: the standard deviation of the utilization
// difference uA−uB over time. A flip-flopping pair (Figure 1's "links A
// and B alternating") swings between ±high; a stable split — even an
// uneven one — has a small swing.
func swing(a, b *stats.Series) float64 {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	var w stats.Welford
	for i := 0; i < n; i++ {
		w.Add(a.Y[i] - b.Y[i])
	}
	return w.StdDev()
}

func TestFigure1OscillationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	da, db, drep := oscillationRun(t, node.DSPF)
	ha, hb, hrep := oscillationRun(t, node.HNSPF)

	dSwing, hSwing := swing(da, db), swing(ha, hb)
	t.Logf("D-SPF: swing=%.3f drops=%d delay=%.0fms", dSwing, drep.BufferDrops, drep.RoundTripDelayMs)
	t.Logf("HN-SPF: swing=%.3f drops=%d delay=%.0fms", hSwing, hrep.BufferDrops, hrep.RoundTripDelayMs)

	// The paper's Figure 1 story: D-SPF alternates the trunks ("instead of
	// cooperating"), HN-SPF shares the load without the alternation.
	if dSwing < 1.5*hSwing {
		t.Errorf("D-SPF oscillation swing (%.3f) should far exceed HN-SPF's (%.3f)", dSwing, hSwing)
	}
	// Under HN-SPF both trunks stay in use.
	aMin, bMin := slices.Min(ha.Y), slices.Min(hb.Y)
	if aMin+bMin < 0.1 {
		t.Errorf("HN-SPF should keep both trunks loaded (mins %.3f, %.3f)", aMin, bMin)
	}
	// HN-SPF delivers at least as well.
	if hrep.DeliveredRatio < drep.DeliveredRatio-0.01 {
		t.Errorf("HN-SPF delivered %.4f < D-SPF %.4f", hrep.DeliveredRatio, drep.DeliveredRatio)
	}
}

func TestTTLGuardsAgainstLoops(t *testing.T) {
	// MaxHops is the only protection against transient loops; make sure a
	// packet that exceeds it is dropped, not forwarded forever. We force
	// the situation artificially by running a network and checking, after
	// every event, that no queued or transmitting packet has used up its
	// hops: one that has is never forwarded, so none is delivered past
	// MaxHops either.
	n := lightRing(node.DSPF, 12)
	for n.kernel.Step() && n.kernel.Now() < 120*sim.Second {
		for _, ls := range n.links {
			ls.Holding(func(p *node.Packet) {
				if p.Hops >= MaxHops {
					t.Fatalf("a packet that crossed %d links was forwarded again, TTL is %d", p.Hops, MaxHops)
				}
			})
		}
	}
}

func TestOfferedMatchesMatrix(t *testing.T) {
	g := topology.Ring(5, topology.T56)
	m := traffic.Uniform(g, 50000)
	n := New(Config{Graph: g, Matrix: m, Metric: node.MinHop, Seed: 6, Warmup: 50 * sim.Second})
	n.Run(600 * sim.Second)
	r := n.Report()
	if math.Abs(r.OfferedKbps-50) > 3 {
		t.Errorf("offered %.2f kbps, want ~50", r.OfferedKbps)
	}
}

// Property-style invariant: every offered packet is accounted for —
// delivered, dropped (buffer / no-route / loop), or still in flight.
func TestPacketConservation(t *testing.T) {
	n := lightRing(node.DSPF, 20)
	n.Run(300 * sim.Second)
	r := n.Report()
	accounted := r.DeliveredPackets + r.BufferDrops + r.NoRouteDrops + r.LoopDrops
	inFlight := r.OfferedPackets - accounted
	// In-flight at the snapshot can be slightly negative too: packets
	// offered before warmup may be delivered after it. Either way the gap
	// must be tiny relative to the total.
	if inFlight < -20 || inFlight > 20 {
		t.Errorf("conservation gap %d of %d offered packets", inFlight, r.OfferedPackets)
	}
	if r.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
}

// The warm-up moves only the measured window: the ledger books every packet
// from t = 0 whatever Config.Warmup says, and the report's packet rows are
// the ledger's growth over the window, in flight the snapshot at its end.
// BF-1969 drops packets as no-route while its vectors converge, so its
// warm-up books a drop class the window must leave out.
func TestWarmupMovesOnlyTheWindow(t *testing.T) {
	const warm, horizon = 40 * sim.Second, 120 * sim.Second
	for _, metric := range []node.MetricKind{node.HNSPF, node.BF1969} {
		t.Run(metric.String(), func(t *testing.T) {
			g := topology.Ring(5, topology.T56)
			m := traffic.Uniform(g, 40000)
			var led [2][2]Conservation // by run (warm-up 0, warm), then instant (warm, horizon)
			var r Report
			for i, warmup := range []sim.Time{0, warm} {
				n := New(Config{Graph: g, Matrix: m, Metric: metric, Seed: 7, Warmup: warmup})
				for j, until := range []sim.Time{warm, horizon} {
					n.Run(until)
					led[i][j] = n.Conservation()
					if err := led[i][j].Err(); err != nil {
						t.Errorf("warm-up %v, at %v: %v", warmup, until, err)
					}
				}
				r = n.Report()
			}
			if led[0] != led[1] {
				t.Fatalf("the warm-up moved the ledger:\n  warm-up 0:  %+v\n  warm-up %v: %+v", led[0], warm, led[1])
			}
			start, end := led[0][0], led[0][1]
			t.Logf("ledger at %v: %+v; at %v: %+v", warm, start, horizon, end)
			got := Conservation{Offered: r.OfferedPackets, Delivered: r.DeliveredPackets, BufferDrops: r.BufferDrops,
				LoopDrops: r.LoopDrops, NoRouteDrops: r.NoRouteDrops, OutageDrops: r.OutageDrops, InFlight: r.InFlightPackets}
			want := Conservation{Offered: end.Offered - start.Offered, Delivered: end.Delivered - start.Delivered,
				BufferDrops: end.BufferDrops - start.BufferDrops, LoopDrops: end.LoopDrops - start.LoopDrops,
				NoRouteDrops: end.NoRouteDrops - start.NoRouteDrops, OutageDrops: end.OutageDrops - start.OutageDrops,
				InFlight: end.InFlight}
			if got != want {
				t.Errorf("report rows %+v, want the ledger at %v less the ledger at %v: %+v", got, horizon, warm, want)
			}
			// The window carries what was offered in it and what was in
			// flight when it opened, so the ratio stays a share.
			if ratio := float64(want.Delivered) / float64(want.Offered+start.InFlight); r.DeliveredRatio != ratio {
				t.Errorf("delivered ratio %v, want %v", r.DeliveredRatio, ratio)
			}
			if start.Offered == 0 || start.Delivered == 0 {
				t.Fatalf("degenerate warm-up: %+v", start)
			}
		})
	}
}

// The warm-up opens its window before every other event of its instant, as
// the sharded engine opens it between barrier windows, so an update flooded
// at that instant counts whether its measurement was scheduled at boot
// (node A's first, at 10 s) or by the run (A's refresh 50 s later). Opened
// after the boot-scheduled events of its instant, as it once was, the window
// missed the first and counted the second.
func TestWarmupOpensBeforeItsInstant(t *testing.T) {
	g := topology.New()
	a, b := g.AddNode("A"), g.AddNode("B")
	g.AddTrunk(a, b, topology.T56)
	first := node.FirstMeasurement(a, g.NumNodes(), node.MeasurementPeriod)
	for _, warm := range []sim.Time{first, first + node.MaxUpdateInterval} {
		n := New(Config{Graph: g, Matrix: traffic.NewMatrix(2), Metric: node.MinHop, Seed: 1, Warmup: warm})
		n.Run(warm + sim.Second)
		if got := n.Report().UpdatesOriginated; got != 1 {
			t.Errorf("warm-up %v: %d updates in the window, want node A's refresh at its end", warm, got)
		}
	}
}

// TestSteadyStateAllocsPerPacket is the runtime twin of the engine's
// allocation-free packet path (sourceFire → handlePacket → enqueue → startTx
// → txDone → propArrive): on the ARPANET map under D-SPF, so floods run,
// the heap allocations per delivered packet after warm-up stay at what
// still allocates by design — one immutable payload plus its two slices per
// originated update — and a packet in flight needs no record beside itself.
// An allocation planted on the per-packet path adds >= 1 per hop.
//
// Measured (go1.24, 400 kb/s gravity matrix, 60 simulated seconds): 590
// mallocs over 23,867 delivered packets = 0.0247 per packet, the same count
// before and after the propagation-record pool was deleted. The bound is
// twice that.
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	g := topology.Arpanet()
	n := New(Config{
		Graph:  g,
		Matrix: traffic.Gravity(g, topology.ArpanetWeights(), 400_000),
		Metric: node.DSPF,
		Seed:   7,
	})
	const warm, span = 60 * sim.Second, 60 * sim.Second
	n.Run(warm)
	delivered := n.Conservation().Delivered
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.Run(warm + span)
	runtime.ReadMemStats(&after)
	delivered = n.Conservation().Delivered - delivered
	if delivered < 10000 {
		t.Fatalf("only %d packets delivered; the measurement is vacuous", delivered)
	}
	if n.Report().UpdatesOriginated == 0 {
		t.Fatal("no routing update originated; the flood path was not exercised")
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(delivered)
	t.Logf("%d mallocs over %d delivered packets = %.5f/packet", after.Mallocs-before.Mallocs, delivered, perPkt)
	const bound = 0.05
	if perPkt > bound {
		t.Errorf("%.4f heap allocations per delivered packet in steady state, want <= %g", perPkt, bound)
	}
	if err := n.Conservation().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelStatsSteadyLoad turns "the calendar finds its size once and a
// steady load never retunes it again" into an assertion, on the Table 1
// load, under D-SPF and under BF-1969. Measured (seed 7, 280 kb/s gravity
// matrix, 272,628 D-SPF events): 1 retune, 139 slots and 2,048 buckets by
// t = 60 s; the bounds are twice that (sized to the pending span instead,
// the calendar would keep 65,536 buckets). The counters must also account
// for every event at any instant.
func TestKernelStatsSteadyLoad(t *testing.T) {
	for _, tc := range []struct {
		metric    node.MetricKind
		maxLadder float64 // share of fires through the ladder, boot included
	}{
		// 1.9% by t = 60 s, boot included; 0.5% over the benchmark's 700 s.
		{node.DSPF, 0.04},
		// BF-1969's vectors lie beyond the 64-bucket boot window: unless
		// ladder churn retunes the calendar once, a fifth of all fires go
		// through the ladder for the whole run. Measured 0.39% with the
		// retune, 20.5% without.
		{node.BF1969, 0.01},
	} {
		metric := tc.metric
		t.Run(metric.String(), func(t *testing.T) {
			g := topology.Arpanet()
			n := New(Config{
				Graph:  g,
				Matrix: traffic.Gravity(g, topology.ArpanetWeights(), 280_000),
				Metric: metric,
				Seed:   7,
			})
			k := n.Kernel()
			var st sim.Stats
			for at := 10 * sim.Second; at <= 60*sim.Second; at += 10 * sim.Second {
				n.Run(at)
				st = k.Stats()
				if got := int(st.Scheduled - st.Fired - st.Cancelled); got != k.Pending() {
					t.Fatalf("at %v: Scheduled-Fired-Cancelled = %d, Pending() = %d (%+v)", at, got, k.Pending(), st)
				}
			}
			ladder := float64(st.LadderPops) / float64(st.Fired)
			t.Logf("%+v, %.3f%% of fires through the ladder", st, 100*ladder)
			if st.Fired < 200_000 {
				t.Fatalf("only %d events in 60 s; the measurement is vacuous", st.Fired)
			}
			const maxRetunes, maxSlots, maxBuckets = 2, 278, 4096
			if st.Retunes < 1 || st.Retunes > maxRetunes || st.Slots > maxSlots || st.Buckets > maxBuckets {
				t.Errorf("%d retunes, %d slots and %d buckets after 60 s of steady load, want 1 to %d, <= %d and <= %d",
					st.Retunes, st.Slots, st.Buckets, maxRetunes, maxSlots, maxBuckets)
			}
			if ladder > tc.maxLadder {
				t.Errorf("%.2f%% of fires through the ladder, want <= %g%%", 100*ladder, 100*tc.maxLadder)
			}
		})
	}
}
