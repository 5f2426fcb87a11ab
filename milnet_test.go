package arpanet

// The MILNET deployment (§1, §4.4): the revised metric was tuned for
// heterogeneous trunking, and the MILNET — slow tails, satellites,
// multi-trunk lines — is the stress case. These tests check the
// before/after improvement holds there too (the paper's companion study,
// BBN Report 6719, measured this on the real network).

import "testing"

func milnetRun(t *testing.T, m Metric, bps float64) Report {
	t.Helper()
	topo := Milnet1987()
	tr := topo.GravityTraffic(MilnetWeights(), bps)
	return mustRun(t, Spec{Topology: topo, Traffic: tr, Metric: m, Seed: 88, WarmupSeconds: 60, Seconds: 360}).Report
}

func TestMilnetTopologyAPI(t *testing.T) {
	t.Parallel()
	topo := Milnet1987()
	if topo.NumNodes() != 26 || topo.NumTrunks() != 36 {
		t.Errorf("Milnet1987 shape = %d nodes, %d trunks", topo.NumNodes(), topo.NumTrunks())
	}
	if len(MilnetWeights()) != 26 {
		t.Error("MilnetWeights size wrong")
	}
}

func TestMilnetBeforeAfter(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation test")
	}
	// MILNET's aggregate capacity is smaller than the ARPANET-like
	// graph's; 150 kbps plays the heavy peak-hour role.
	before := milnetRun(t, DSPF, 150_000)
	after := milnetRun(t, HNSPF, 150_000*1.13)
	t.Logf("D-SPF:  %.1f kbps carried, %.0f ms, %d drops, %.2f upd/trunk/s",
		before.InternodeTrafficKbps, before.RoundTripDelayMs, before.BufferDrops, before.UpdatesPerTrunkSec)
	t.Logf("HN-SPF: %.1f kbps carried, %.0f ms, %d drops, %.2f upd/trunk/s",
		after.InternodeTrafficKbps, after.RoundTripDelayMs, after.BufferDrops, after.UpdatesPerTrunkSec)

	// The Table 1 shape must hold on MILNET too: more traffic carried
	// despite the +13% offered load, fewer drops relative to traffic, and
	// no more routing overhead.
	if after.InternodeTrafficKbps <= before.InternodeTrafficKbps {
		t.Errorf("HN-SPF carried %.1f kbps <= D-SPF's %.1f at +13%% offered",
			after.InternodeTrafficKbps, before.InternodeTrafficKbps)
	}
	if after.RoundTripDelayMs > before.RoundTripDelayMs {
		t.Errorf("HN-SPF delay %.0f ms exceeds D-SPF's %.0f despite the paper's shape",
			after.RoundTripDelayMs, before.RoundTripDelayMs)
	}
	if after.UpdatesPerTrunkSec > before.UpdatesPerTrunkSec*1.2 {
		t.Errorf("HN-SPF update rate %.2f should not exceed D-SPF's %.2f",
			after.UpdatesPerTrunkSec, before.UpdatesPerTrunkSec)
	}
}

func TestMilnetLoadSpreading(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation test")
	}
	// §3.3's defect is concentration: "at any given moment, it is likely
	// that some network links will be over-utilized while others are
	// under-utilized". At equal heavy load, HN-SPF should show a smaller
	// hot-spot-to-average utilization ratio than D-SPF.
	ratio := func(m Metric) (float64, Report) {
		r := milnetRun(t, m, 150_000)
		return r.MaxLinkUtilization / r.MeanLinkUtilization, r
	}
	dr, drep := ratio(DSPF)
	hr, hrep := ratio(HNSPF)
	t.Logf("hot-spot ratio: D-SPF %.2f (max %.2f), HN-SPF %.2f (max %.2f)",
		dr, drep.MaxLinkUtilization, hr, hrep.MaxLinkUtilization)
	if hr >= dr {
		t.Errorf("HN-SPF hot-spot ratio %.2f should be below D-SPF's %.2f", hr, dr)
	}
}
