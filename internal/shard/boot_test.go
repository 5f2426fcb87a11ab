package shard

import (
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// refreshesDue is how many of n nodes refresh in measurement period k (from
// k·10 s): none in the first, then node i at its measurement 1 + i mod 5 and
// every fifth one after, so period k holds the nodes i ≡ k−1 (mod 5).
func refreshesDue(n, k int) int64 {
	if k == 0 {
		return 0
	}
	due := int64(0)
	for i := 0; i < n; i++ {
		if i%5 == (k-1)%5 {
			due++
		}
	}
	return due
}

// TestBootInSteadyState: the adaptive plane boots a network that is already
// running. Min-hop without faults reports nothing, so every origination is a
// 50 s refresh: none before a node's first (no boot flood), and, staggered by
// node ID, exactly the nodes refreshesDue names in each 10 s period, never
// more than ⌈N/5⌉ — where every refresh used to fall due in the same period.
// Reverting the settled boot (node.NewCostModule) floods every node in the
// first period; reverting the stagger (node.BootOriginated) floods every node
// in the fifth.
func TestBootInSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		shards  int
		periods int
	}{
		{"arpanet", topology.Arpanet(), 2, 12},
		{"hier:32x32", topology.Hierarchical(32, 32, 1987), 2, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumNodes()
			s, err := New(Config{Graph: tc.g, Shards: tc.shards, Seed: 1987, PktRate: 1e-6, Dests: 1,
				Adaptive: true, Metric: node.MinHop})
			if err != nil {
				t.Fatal(err)
			}
			most := int64((n + 4) / 5)
			before := int64(0)
			for k := 0; k < tc.periods; k++ {
				s.Run(sim.Time(k+1)*node.MeasurementPeriod - 1)
				got := s.Report().Originated - before
				before += got
				if want := refreshesDue(n, k); got != want || got > most {
					t.Errorf("period %d (from %ds): %d originations, want %d (at most ⌈N/5⌉ = %d)", k, 10*k, got, want, most)
				}
			}
			if err := s.Audit(); err != nil {
				t.Fatal(err)
			}
			if err := s.ConvergenceAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStaticRoutesAgainstAdaptiveMinHop: the static plane's oracle. Booted
// in steady state, with no faults and before the first refresh, adaptive
// min-hop routes over the unit costs every router boots from. For every
// (node, destination) entry the static table holds, the adaptive router's
// first hop must lie on a shortest path in hops. The static plane routes on
// delay (linkCost), not hops, so the two may leave on different lines even
// where the shortest path in hops is the only one (on the ARPANET map, AMES
// toward LBL). Where every link has the same static cost — a grid of one
// line type — the two metrics rank paths alike, and the adaptive line must
// be the static line wherever that shortest path is the only one.
func TestStaticRoutesAgainstAdaptiveMinHop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *topology.Graph
		uniform bool // one static cost on every link
	}{
		{"arpanet", topology.Arpanet(), false},
		{"hier:32x32", topology.Hierarchical(32, 32, 1987), false},
		{"grid:8x8", topology.Grid(8, 8, topology.T56), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			cfg := Config{Graph: g, Shards: 1, Seed: 1987, PktRate: 1, Dests: 8, Metric: node.MinHop}
			static, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Adaptive = true
			adaptive, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			horizon := 9 * sim.Second // under every node's first refresh
			static.Run(horizon)
			adaptive.Run(horizon)
			if got := adaptive.Report().Originated; got != 0 {
				t.Fatalf("%d originations before the first refresh; the routers are not the boot's", got)
			}
			n := g.NumNodes()
			hops := make([]int, n)  // to the current destination
			paths := make([]int, n) // shortest paths to it, capped at 2
			order := make([]int, 0, n)
			checked, unique, differ := 0, 0, 0
			for d := range n {
				dst := topology.NodeID(d)
				// Breadth-first from dst over the reversed links: hop counts,
				// then the number of shortest paths, nearest first.
				for i := range hops {
					hops[i], paths[i] = -1, 0
				}
				hops[d], paths[d] = 0, 1
				order = append(order[:0], d)
				for i := 0; i < len(order); i++ {
					for _, lid := range g.In(topology.NodeID(order[i])) {
						if u := int(g.Link(lid).From); hops[u] < 0 {
							hops[u] = hops[order[i]] + 1
							order = append(order, u)
						}
					}
				}
				for _, v := range order[1:] {
					for _, lid := range g.Out(topology.NodeID(v)) {
						if w := g.Link(lid).To; hops[w] == hops[v]-1 {
							paths[v] = min(paths[v]+paths[w], 2)
						}
					}
				}
				for v := range n {
					from := topology.NodeID(v)
					if v == d || static.routes.record(from, dst) < 0 {
						continue
					}
					checked++
					line := adaptive.nodeAt[v].Router.Tree().NextLine(dst)
					if line < 0 || hops[g.Link(g.Out(from)[line]).To] != hops[v]-1 {
						t.Fatalf("%s toward %s: adaptive min-hop's line %d is not on a shortest path", g.Node(from).Name, g.Node(dst).Name, line)
					}
					if paths[v] > 1 {
						continue
					}
					unique++
					if st := int(static.routes.nextLine(dst, from)); st != line {
						differ++
						if tc.uniform {
							t.Fatalf("%s toward %s: the only shortest path leaves on line %d; the static table says %d",
								g.Node(from).Name, g.Node(dst).Name, line, st)
						}
					}
				}
			}
			if tc.uniform && unique == 0 {
				t.Fatal("no entry has a unique shortest path: the oracle compared nothing")
			}
			t.Logf("%d static entries; adaptive min-hop on a shortest path for all; %d with a unique one, of which the static line (delay) differs on %d",
				checked, unique, differ)
		})
	}
}
