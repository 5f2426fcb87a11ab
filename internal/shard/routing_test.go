package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// scanEpoch is the brute-force oracle for epochAt: the last epoch whose
// start time is <= t.
func scanEpoch(epochs []sim.Time, t sim.Time) int {
	e := 0
	for i, at := range epochs {
		if at <= t {
			e = i
		}
	}
	return e
}

// TestEpochCursor pins the fault-epoch cursor's contract (see epochAt's
// doc): for ANY hint at or before the correct epoch — not just the
// immediately preceding one — and any query time, the cursor lands exactly
// where a linear scan does. Fault scripts are drawn with unsorted and
// duplicate times, since buildRouting must dedup and sort them first.
func TestEpochCursor(t *testing.T) {
	g := topology.Arpanet()
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 200; trial++ {
		var faults []Fault
		for i := rng.Intn(8); i > 0; i-- {
			at := sim.Time(rng.Int63n(100)) * 100 * sim.Millisecond
			faults = append(faults, Fault{Trunk: rng.Intn(g.NumTrunks()), At: at, Up: rng.Intn(2) == 0})
		}
		r := buildRouting(g, faults)
		for i := 1; i < len(r.epochs); i++ {
			if r.epochs[i] <= r.epochs[i-1] {
				t.Fatalf("trial %d: epochs not strictly ascending: %v", trial, r.epochs)
			}
		}
		for q := 0; q < 50; q++ {
			at := sim.Time(rng.Int63n(11 * int64(sim.Second)))
			want := scanEpoch(r.epochs, at)
			for hint := 0; hint <= want; hint++ {
				if got := r.epochAt(hint, at); got != want {
					t.Fatalf("trial %d: epochAt(%d, %v) = %d, scan says %d (epochs %v)",
						trial, hint, at, got, want, r.epochs)
				}
			}
		}
	}
}

// TestEpochCursorMonotoneCarry replays the hot-path usage: one cursor
// carried through a monotone event-time sequence (repeats included, as
// simultaneous events produce) must track the scan at every step.
func TestEpochCursorMonotoneCarry(t *testing.T) {
	g := topology.Arpanet()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var faults []Fault
		for i := 1 + rng.Intn(6); i > 0; i-- {
			faults = append(faults, Fault{
				Trunk: rng.Intn(g.NumTrunks()),
				At:    sim.Time(rng.Int63n(int64(10 * sim.Second))),
				Up:    rng.Intn(2) == 0,
			})
		}
		r := buildRouting(g, faults)
		cursor, now := 0, sim.Time(0)
		for step := 0; step < 300; step++ {
			if rng.Intn(4) > 0 { // 1-in-4 steps repeat the same instant
				now += sim.Time(rng.Int63n(int64(100 * sim.Millisecond)))
			}
			cursor = r.epochAt(cursor, now)
			if want := scanEpoch(r.epochs, now); cursor != want {
				t.Fatalf("trial %d step %d: carried cursor %d at %v, scan says %d (epochs %v)",
					trial, step, cursor, now, want, r.epochs)
			}
		}
	}
}

// refTree is the static plane's tree as it stood before the tables held line
// numbers — 32-bit global link IDs, a topology.Link copy per relaxation, a
// fresh heap behind two closures per call — kept verbatim as the oracle of
// TestStaticRoutesAgainstLinkIDReference: out[v] is v's next-hop LinkID toward
// dest, -1 at dest itself or when unreachable.
func refTree(g *topology.Graph, cost []sim.Time, down []bool, dest topology.NodeID, out []int32) {
	dist := make([]int64, g.NumNodes())
	for i := range dist {
		dist[i] = infDist
	}
	dist[dest] = 0
	heap := []int64{int64(dest)}
	push := func(key int64) {
		heap = append(heap, key)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int64 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && heap[c+1] < heap[c] {
				c++
			}
			if heap[i] <= heap[c] {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	for len(heap) > 0 {
		key := pop()
		d := key >> nodeBits
		v := topology.NodeID(key & (1<<nodeBits - 1))
		if d > dist[v] {
			continue // stale heap entry
		}
		for _, lid := range g.In(v) {
			l := g.Link(lid)
			if down[l.Trunk] {
				continue
			}
			if nd := d + int64(cost[lid]); nd < dist[l.From] {
				dist[l.From] = nd
				push(nd<<nodeBits | int64(l.From))
			}
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		out[v] = -1
		if topology.NodeID(v) == dest || dist[v] == infDist {
			continue
		}
		best := int64(infDist)
		for _, lid := range g.Out(topology.NodeID(v)) {
			l := g.Link(lid)
			if down[l.Trunk] || dist[l.To] == infDist {
				continue
			}
			if c := int64(cost[lid]) + dist[l.To]; c < best {
				best = c
				out[v] = int32(lid)
			}
		}
	}
}

// allDests is the static routing of g under faults with every node a
// destination, ready for finalize.
func allDests(g *topology.Graph, faults []Fault) *routing {
	r := buildRouting(g, faults)
	for d := 0; d < g.NumNodes(); d++ {
		r.addDest(topology.NodeID(d))
	}
	return r
}

// TestStaticRoutesAgainstLinkIDReference checks every (epoch, destination,
// node) entry of the static tables against refTree: the line stored must be
// the reference's link, Out(v)[line] == ref, and noLine exactly where the
// reference has none. The goldens and CheckShardRouting see these tables only
// end to end, through the packets they route.
func TestStaticRoutesAgainstLinkIDReference(t *testing.T) {
	hier := testGraph(t)
	bb := backboneTrunks(hier)

	// Two equal trunks side by side between A and B: only the line number
	// tells them apart, and the tie must go to the lower link ID.
	twin := topology.New()
	a, b, c := twin.AddNode("A"), twin.AddNode("B"), twin.AddNode("C")
	lo, _ := twin.AddTrunk(a, b, topology.T56)
	twin.AddTrunk(a, b, topology.T56)
	twin.AddTrunk(b, c, topology.T56)

	// Lines past 255 at the hub; failing the hub's trunk to S259 sends that
	// spoke's traffic round through S260, line 260.
	hub := topology.New()
	h := hub.AddNode("HUB")
	const spokes = 300
	for i := 0; i < spokes; i++ {
		hub.AddTrunk(h, hub.AddNode(fmt.Sprintf("S%d", i)), topology.T56)
	}
	for i := 0; i < spokes; i += 7 {
		hub.AddTrunk(topology.NodeID(1+i), topology.NodeID(1+(i+1)%spokes), topology.T56)
	}

	for _, tc := range []struct {
		name   string
		g      *topology.Graph
		faults []Fault
		also   func(t *testing.T, r *routing)
	}{
		{"hier:4x8, two failures and a repair", hier, []Fault{
			{Trunk: bb[0], At: 3 * sim.Second},
			{Trunk: bb[1], At: 5 * sim.Second},
			{Trunk: bb[0], At: 8 * sim.Second, Up: true},
		}, nil},
		{"parallel equal-cost trunks", twin, nil, func(t *testing.T, r *routing) {
			for _, dst := range []topology.NodeID{b, c} {
				if line := r.nextLine(0, dst, a); line != 0 || twin.Out(a)[line] != lo {
					t.Errorf("A toward %d: line %d, want 0 (link %d, the lower ID of the tie)", dst, line, lo)
				}
			}
		}},
		{"300-line hub", hub, []Fault{{Trunk: 259, At: sim.Second}}, func(t *testing.T, r *routing) {
			if line := r.nextLine(1, 260, h); line != 260 {
				t.Errorf("hub toward S259 with its trunk down: line %d, want 260 (through S260)", line)
			}
		}},
		{"a fault partitions the graph", twin, []Fault{{Trunk: 2, At: sim.Second}}, func(t *testing.T, r *routing) {
			if r.nextLine(0, c, a) == noLine || r.nextLine(1, c, a) != noLine || r.nextLine(1, a, c) != noLine {
				t.Error("C is not cut off exactly while trunk B–C is down")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			r := allDests(g, tc.faults)
			r.finalize(g, tc.faults)
			if len(r.epochs) != 1+len(tc.faults) {
				t.Fatalf("%d epochs for %d faults at distinct times", len(r.epochs), len(tc.faults))
			}
			cost := make([]sim.Time, g.NumLinks())
			for i, l := range g.Links() {
				cost[i] = linkCost(l)
			}
			ref := make([]int32, g.NumNodes())
			for e, at := range r.epochs {
				down := make([]bool, g.NumTrunks())
				for _, f := range tc.faults {
					if f.At <= at {
						down[f.Trunk] = !f.Up
					}
				}
				for _, d := range r.dests {
					refTree(g, cost, down, d, ref)
					for v := range ref {
						line := r.nextLine(e, d, topology.NodeID(v))
						if (ref[v] < 0) != (line == noLine) ||
							ref[v] >= 0 && g.Out(topology.NodeID(v))[line] != topology.LinkID(ref[v]) {
							t.Fatalf("epoch %d, node %d toward %d: line %d of its %d, reference link %d",
								e, v, d, line, g.Degree(topology.NodeID(v)), ref[v])
						}
					}
				}
			}
			if tc.also != nil {
				tc.also(t, r)
			}
		})
	}
}

// TestFinalizeAllocations: building the tables allocates per epoch — the
// table, and once the scratch every tree shares — never per destination.
// 6 allocations for 1,024 trees; a heap or a closure made per tree is 1,024
// or more.
func TestFinalizeAllocations(t *testing.T) {
	g := topology.Hierarchical(32, 32, 1987)
	r := allDests(g, nil)
	allocs := testing.AllocsPerRun(1, func() { r.finalize(g, nil) })
	t.Logf("%d destinations, 1 epoch: %.0f allocations", len(r.dests), allocs)
	if allocs > 16 {
		t.Errorf("finalize made %.0f allocations for %d trees over one epoch, want <= 16", allocs, len(r.dests))
	}
}

// TestHier1kDataplaneLiveHeap is TestHier1kAdaptiveLiveHeap's static twin:
// the benchmark's hier1k_dataplane configuration at the size the benchmark
// runs it. 4.0 MB with 16-bit lines in the tables (2·D·N = 2.0 MB of it, every
// node being someone's neighbour); 4.4 MB with the three line types'
// 20,001-entry delay→utilization arrays as well, 6.4 MB with 32-bit link IDs
// in the tables.
func TestHier1kDataplaneLiveHeap(t *testing.T) {
	const bound = 4.5 * (1 << 20)
	g := topology.Hierarchical(32, 32, 1987)
	s, live := liveHeapAfter(t, Config{Graph: g, Shards: 2, Seed: 1987, PktRate: 50, Dests: 4, DestRadius: 1})
	n, d := g.NumNodes(), len(s.routes.dests)
	t.Logf("%d nodes, %d destinations: %.2f MB live after New; static table 2DN = %.2f MB",
		n, d, live/(1<<20), float64(2*d*n)/(1<<20))
	if live > bound {
		t.Errorf("%.2f MB of live heap after New, want <= %.1f MB", live/(1<<20), bound/(1<<20))
	}
}
