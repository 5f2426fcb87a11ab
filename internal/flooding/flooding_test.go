package flooding

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestUpdateSize(t *testing.T) {
	u := NewUpdate(0, 1, []topology.LinkID{0, 2, 4}, []float64{30, 30, 90})
	if got := u.SizeBits(); got != 128+3*32 {
		t.Errorf("SizeBits = %v, want 224", got)
	}
	empty := NewUpdate(0, 1, nil, nil)
	if empty.SizeBits() != 128 {
		t.Error("empty update should be header-only")
	}
}

func TestNewUpdatePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { NewUpdate(0, 1, []topology.LinkID{1}, nil) },
		"zero cost":       func() { NewUpdate(0, 1, []topology.LinkID{1}, []float64{0}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		})
	}
}

// A cost no router could use is refused where the update is made, by a
// message that says whose update, which link and what value — not later,
// from whichever of N routers meets it first. NaN is the case `c <= 0` let
// through.
func TestNewUpdateRejectsUnusableCostsByName(t *testing.T) {
	for name, c := range map[string]float64{
		"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1), "negative": -3,
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{"node 7", "link 12", fmt.Sprint(c)} {
					if !strings.Contains(msg, want) {
						t.Errorf("recovered %q, want it to name %q", msg, want)
					}
				}
			}()
			NewUpdate(7, 1, []topology.LinkID{10, 12}, []float64{30, c})
			t.Error("NewUpdate returned")
		})
	}
}

func TestDedup(t *testing.T) {
	d := NewDedup(3)
	if !d.Accept(1, 5) {
		t.Error("first update should be accepted")
	}
	if d.Accept(1, 5) {
		t.Error("duplicate seq should be rejected")
	}
	if d.Accept(1, 3) {
		t.Error("old seq should be rejected")
	}
	if !d.Accept(1, 6) {
		t.Error("newer seq should be accepted")
	}
	if !d.Accept(2, 1) {
		t.Error("different origin should be independent")
	}
	if !d.any[1] || d.seen[1] != 6 {
		t.Errorf("origin 1: seen %d, any %v; want 6, true", d.seen[1], d.any[1])
	}
	if d.any[0] {
		t.Error("an unseen origin is marked seen")
	}
	// Seq 0 from a fresh origin is accepted (any[] flag, not a magic zero).
	if !d.Accept(0, 0) {
		t.Error("seq 0 from a fresh origin should be accepted")
	}
	if d.Accept(0, 0) {
		t.Error("repeated seq 0 should be rejected")
	}
}

func TestNewDedupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDedup(0) should panic")
		}
	}()
	NewDedup(0)
}

func TestForwardLinks(t *testing.T) {
	g := topology.Ring(4, topology.T56)
	n := topology.NodeID(1)
	out := g.Out(n)
	if len(out) != 2 {
		t.Fatal("ring node should have 2 outgoing links")
	}
	// Locally originated: forward on all.
	all := AppendForwardLinks(nil, g, n, topology.NoLink)
	if len(all) != 2 {
		t.Errorf("local update should forward on 2 links, got %d", len(all))
	}
	// Arriving via link 0→1: forward only on the other trunk.
	arr, ok := g.FindTrunk(0, n)
	if !ok {
		t.Fatal("missing trunk")
	}
	fwd := AppendForwardLinks(nil, g, n, arr)
	if len(fwd) != 1 {
		t.Fatalf("should forward on 1 link, got %d", len(fwd))
	}
	if g.Link(fwd[0]).To == 0 {
		t.Error("must not forward back toward the sender")
	}
}

func TestSequencer(t *testing.T) {
	var s Sequencer
	if s.Next() != 1 || s.Next() != 2 || s.Next() != 3 {
		t.Error("Sequencer should count 1, 2, 3, ...")
	}
}

// Property: flooding with dedup over any connected graph delivers an
// update exactly once to every node and terminates. This simulates the
// flood synchronously (no timing) — the network layer adds timing.
func TestFloodReachesAllOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := topology.Random(10, 2.5, seed)
		origin := topology.NodeID(uint64(seed) % uint64(g.NumNodes()))
		dedups := make([]*Dedup, g.NumNodes())
		for i := range dedups {
			dedups[i] = NewDedup(g.NumNodes())
		}
		received := make([]int, g.NumNodes())
		transmissions := 0

		type inflight struct {
			at  topology.NodeID
			via topology.LinkID
		}
		queue := []inflight{{origin, topology.NoLink}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if !dedups[cur.at].Accept(origin, 1) {
				continue
			}
			received[cur.at]++
			for _, l := range AppendForwardLinks(nil, g, cur.at, cur.via) {
				transmissions++
				queue = append(queue, inflight{g.Link(l).To, l})
			}
		}
		for _, r := range received {
			if r != 1 {
				return false
			}
		}
		// Each trunk carries the update at most once per direction plus the
		// possible crossing duplicate: transmissions ≤ 2×links.
		return transmissions <= 2*g.NumLinks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
