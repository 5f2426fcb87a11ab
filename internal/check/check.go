// Package check is the randomized correctness harness of the repository:
// property-based and differential testing for the routing stack, one rung
// above the hand-picked scenarios and golden traces.
//
// A campaign runs seven pillars, the rows of campaign.go's trials, in this
// order (every scripted pillar but the hybrid differential runs on
// internal/shard, through scenario.RunSharded):
//
//   - spf-differential (CheckSPF, spfcheck.go): on seeded generated
//     topologies with random weights and failures, the incremental SPF
//     router is checked after every link-cost change against a fresh
//     from-scratch Dijkstra and an independent naive Bellman-Ford
//     reference, with distance equality and hop-by-hop loop freedom
//     asserted for every (src, dst) pair;
//   - metric-invariant (CheckMetric, metriccheck.go): every metric stays
//     within its Floor/Ceiling band, respects the §4.2/§4.3 per-update
//     movement limits and never stays silent past its forced-update
//     horizon;
//   - flood-delivery (CheckFlood, scenariocheck.go): the flood heals a
//     partition — a generated topology is cut into components, news floods
//     on each side, the cut heals, and one flood time later every PSN
//     holds every origin's latest update;
//   - scenario-audit (CheckScenario, scenariocheck.go): the packet-
//     conservation ledger, custody, transmitter and convergence audits of
//     scenario.RunSharded hold under randomized fault scripts;
//   - hybrid-differential (CheckHybrid, hybridcheck.go): a run carrying
//     background demand as fluid tracks the full-packet run's advertised
//     costs and routes on the ARPANET map;
//   - shard-differential (CheckShardRouting, shardcheck.go) and
//     shard-custody (CheckShardCustody, shardcheck.go): a cut of the sharded
//     adaptive engine reproduces the one-shard run — every link's cost
//     series bit for bit, the merged trace and the report byte for byte —
//     with the audits of scenario.RunSharded (the user and control custody
//     ledgers, the transmitters, convergence) passing at every 1 s
//     checkpoint; the differential cuts at 2 and 4 shards where the
//     partitioner does, the custody torture at random under congestion and
//     random fault scripts.
//
// Every failure shrinks before it surfaces (shrink.go): the input that
// broke it — an update stream, a delay sequence, a fault script — is
// minimized by delta debugging and rendered as a self-contained reproducer
// (for the five scripted pillars, a committable .scn script), so
// a campaign failure becomes a regression test instead of a seed number in
// a log.
//
// Campaigns (campaign.go) bundle the pillars behind one seed: the same
// seed always generates the same topologies, inputs and verdicts, so any
// failure anywhere reproduces from its campaign seed alone. cmd/checker
// fans campaigns over the cores (internal/fanout).
package check

import "fmt"

// Failure is one invariant violation found by a checker, carrying enough
// to reproduce it without the harness: the campaign seed, the generated
// input's description, and a minimized reproducer.
type Failure struct {
	// Check names the failed checker: "spf-differential", "metric-invariant",
	// "flood-delivery", "scenario-audit", "hybrid-differential",
	// "shard-differential" or "shard-custody".
	Check string
	// Seed is the campaign seed that generated the failing input.
	Seed int64
	// Topo describes the generated topology, e.g. "random(n=12 deg=2.6 seed=77)".
	Topo string
	// Err is the violated property.
	Err string
	// Repro is the minimized reproducer: an op list, or for the five
	// scripted checks (flood-delivery onward) a complete .scn script.
	Repro string
}

// String renders the failure for campaign logs.
func (f *Failure) String() string {
	return fmt.Sprintf("%s seed=%d topo=%s: %s\nreproducer:\n%s",
		f.Check, f.Seed, f.Topo, f.Err, f.Repro)
}
