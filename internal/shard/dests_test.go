package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spf"
	"repro/internal/topology"
)

// TestDestBalls pins the locality draw on small random graphs: every
// destination of v lies within DestRadius hops of it by spf.Compute, v is
// never among them, and a ball of at most Dests nodes is taken whole, in
// ascending ID order.
func TestDestBalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1987))
	unit := func(topology.LinkID) float64 { return 1 }
	whole, drawn := 0, 0
	for trial := 0; trial < 12; trial++ {
		g := topology.Random(6+rng.Intn(30), 1.5+2*rng.Float64(), rng.Int63())
		cfg := Config{Graph: g, Shards: 1, Seed: int64(trial), PktRate: 10,
			Dests: 1 + rng.Intn(8), DestRadius: 1 + trial%3}
		label := fmt.Sprintf("trial %d (%d nodes, dests %d, radius %d)", trial, g.NumNodes(), cfg.Dests, cfg.DestRadius)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			id := topology.NodeID(v)
			tree := spf.Compute(g, id, unit)
			var ball []topology.NodeID
			for u := 0; u < g.NumNodes(); u++ {
				if u != v && tree.Dist(topology.NodeID(u)) <= float64(cfg.DestRadius) {
					ball = append(ball, topology.NodeID(u))
				}
			}
			got := s.DestsOf(id)
			for _, d := range got {
				if d == id {
					t.Fatalf("%s: node %d is its own destination: %v", label, v, got)
				}
				if h := tree.Dist(d); h > float64(cfg.DestRadius) {
					t.Fatalf("%s: node %d sends to %d, %v hops away", label, v, d, h)
				}
			}
			distinct := slices.Clone(got)
			slices.Sort(distinct)
			switch {
			case len(ball) <= cfg.Dests:
				whole++
				if !slices.Equal(got, ball) {
					t.Fatalf("%s: node %d's ball is %v, its destinations %v", label, v, ball, got)
				}
			case len(got) != cfg.Dests || len(slices.Compact(distinct)) != len(got):
				t.Fatalf("%s: node %d draws %v from a ball of %d, want %d distinct", label, v, got, len(ball), cfg.Dests)
			default:
				drawn++
			}
		}
	}
	if whole == 0 || drawn == 0 {
		t.Fatalf("%d balls taken whole, %d drawn from; the trials must exercise both", whole, drawn)
	}
}
