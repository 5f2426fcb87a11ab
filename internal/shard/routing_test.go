package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
// duplicate times, since faultEpochs must dedup and sort them first.
func TestEpochCursor(t *testing.T) {
	g := topology.Arpanet()
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 200; trial++ {
		var faults []Fault
		for i := rng.Intn(8); i > 0; i-- {
			at := sim.Time(rng.Int63n(100)) * 100 * sim.Millisecond
			faults = append(faults, Fault{Trunk: rng.Intn(g.NumTrunks()), At: at, Up: rng.Intn(2) == 0})
		}
		r := &routing{epochs: faultEpochs(faults)}
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
		r := &routing{epochs: faultEpochs(faults)}
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

// allPairs is the destination sets of all-pairs traffic: every node sends to
// every other.
func allPairs(g *topology.Graph) func(topology.NodeID) []topology.NodeID {
	sets := make([][]topology.NodeID, g.NumNodes())
	for v := range sets {
		for d := range g.NumNodes() {
			if d != v {
				sets[v] = append(sets[v], topology.NodeID(d))
			}
		}
	}
	return func(v topology.NodeID) []topology.NodeID { return sets[v] }
}

// checkRoutes holds r, built for g, faults and destsOf, to refTree. For every
// destination it walks the closure itself — the destination's sources, then
// every node a reference next hop of any epoch leads to, the destination
// excluded — and requires an entry at each node of it whose line in every
// epoch is the reference's link (noLine exactly where the reference has
// none). The table may keep nothing else.
func checkRoutes(t *testing.T, g *topology.Graph, faults []Fault, destsOf func(topology.NodeID) []topology.NodeID, r *routing) {
	t.Helper()
	n := g.NumNodes()
	cost := make([]sim.Time, g.NumLinks())
	for i, l := range g.Links() {
		cost[i] = linkCost(l)
	}
	downs := make([][]bool, len(r.epochs))
	refs := make([][]int32, len(r.epochs))
	for e, at := range r.epochs {
		downs[e] = make([]bool, g.NumTrunks())
		for _, f := range faults {
			if f.At <= at {
				downs[e][f.Trunk] = !f.Up
			}
		}
		refs[e] = make([]int32, n)
	}
	sources := make([][]topology.NodeID, n)
	for v := range n {
		for _, d := range destsOf(topology.NodeID(v)) {
			sources[d] = append(sources[d], topology.NodeID(v))
		}
	}
	entries, dests := 0, 0
	for d := range n {
		dst := topology.NodeID(d)
		if len(sources[d]) == 0 {
			continue
		}
		dests++
		for e := range r.epochs {
			refTree(g, cost, downs[e], dst, refs[e])
		}
		in := make([]bool, n)
		in[d] = true
		var queue []topology.NodeID
		for _, v := range sources[d] {
			if !in[v] {
				in[v] = true
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			entries++
			if r.record(v, dst) < 0 {
				t.Fatalf("node %d toward %d: no entry, but the closure holds the node", v, d)
			}
			for e := range r.epochs {
				ref, line := refs[e][v], r.nextLine(e, dst, v)
				if (ref < 0) != (line == noLine) || ref >= 0 && g.Out(v)[line] != topology.LinkID(ref) {
					t.Fatalf("epoch %d, node %d toward %d: line %d of its %d, reference link %d",
						e, v, d, line, g.Degree(v), ref)
				}
				if ref < 0 {
					continue
				}
				if w := g.Link(topology.LinkID(ref)).To; !in[w] {
					in[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	kept := 0
	for k := 0; k < len(r.rec); k += r.w {
		if r.rec[k] != 0 {
			kept++
		}
	}
	if kept != entries || r.entries != entries || r.dests != dests {
		t.Fatalf("the table keeps %d records (says %d) toward %d destinations, the closures hold %d entries toward %d",
			kept, r.entries, r.dests, entries, dests)
	}
}

// TestStaticRoutesAgainstLinkIDReference checks the static table under
// all-pairs traffic, where every node is in every closure, with checkRoutes:
// every (epoch, destination, node) entry is the reference's link,
// Out(v)[line] == ref, and noLine exactly where the reference has none. The
// goldens and CheckShardRouting see the table only end to end, through the
// packets it routes.
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
			destsOf := allPairs(g)
			r, err := buildRouting(g, tc.faults, destsOf)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.epochs) != 1+len(tc.faults) {
				t.Fatalf("%d epochs for %d faults at distinct times", len(r.epochs), len(tc.faults))
			}
			checkRoutes(t, g, tc.faults, destsOf, r)
			if tc.also != nil {
				tc.also(t, r)
			}
		})
	}
}

// TestStaticRouteClosures holds tables built from the traffic model's own
// destination sets — uniform and within a radius — to checkRoutes, on small
// hier and waxman graphs under fault scripts whose faults share instants,
// whose repairs bring trunks back and whose partitions take every trunk of a
// node down at once: every entry the reference's, every closure complete,
// nothing kept past it.
func TestStaticRouteClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := range 60 {
		var g *topology.Graph
		if trial%2 == 0 {
			g = topology.Hierarchical(2+rng.Intn(3), 3+rng.Intn(6), rng.Int63())
		} else {
			g = topology.Waxman(6+rng.Intn(30), 0.6, 0.12, rng.Int63(), topology.T56, topology.T112)
		}
		var faults []Fault
		for i := rng.Intn(7); i > 0; i-- {
			at := sim.Time(1+rng.Intn(3)) * sim.Second // three instants: faults share them
			switch {
			case rng.Intn(4) == 0: // a partition: every trunk of one node
				for _, lid := range g.Out(topology.NodeID(rng.Intn(g.NumNodes()))) {
					faults = append(faults, Fault{Trunk: g.Link(lid).Trunk, At: at})
				}
			case len(faults) > 0 && rng.Intn(3) == 0: // a repair, maybe of a trunk still up
				faults = append(faults, Fault{Trunk: faults[rng.Intn(len(faults))].Trunk, At: at, Up: true})
			default:
				faults = append(faults, Fault{Trunk: rng.Intn(g.NumTrunks()), At: at})
			}
		}
		cfg := Config{Graph: g, Shards: 1, Seed: rng.Int63(), PktRate: 1,
			Dests: 1 + rng.Intn(4), DestRadius: rng.Intn(3), Faults: faults}
		t.Run(fmt.Sprintf("%d:%d-nodes,%d-faults,dests-%d,radius-%d", trial, g.NumNodes(), len(faults), cfg.Dests, cfg.DestRadius),
			func(t *testing.T) {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkRoutes(t, g, faults, s.DestsOf, s.routes)
			})
	}
}

// A lookup the closure does not hold is a routing bug, not a packet without a
// route: it panics by name instead of dropping the packet.
func TestStaticRouteOutsideClosurePanics(t *testing.T) {
	g := testGraph(t)
	src, dst := topology.NodeID(0), topology.NodeID(1)
	r, err := buildRouting(g, nil, func(v topology.NodeID) []topology.NodeID {
		if v == src {
			return []topology.NodeID{dst}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.nextLine(0, dst, src) == noLine {
		t.Fatal("the source has no route to its destination")
	}
	far := topology.NodeID(g.NumNodes() - 1)
	if r.record(far, dst) >= 0 {
		t.Fatalf("node %d holds an entry toward %d; pick a node outside the closure", far, dst)
	}
	for _, q := range []struct{ from, to topology.NodeID }{{far, dst}, {src, far}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("no static route from node %d toward %d: outside that destination's closure", q.from, q.to); !strings.Contains(msg, want) {
					t.Errorf("lookup from %d toward %d: recovered %q, want %q", q.from, q.to, msg, want)
				}
			}()
			r.nextLine(0, q.to, q.from)
		}()
	}
}

// TestFinalizeAllocations: building the table allocates a fixed set of
// arrays — the trees' shared scratch, the sources, the closures and the
// table — however many destinations and epochs there are. On hier:32x32
// under a three-epoch fault script, every node sending to node 0 (one
// destination) and every node sending to every other (1,024) allocate alike;
// a heap or a closure made per tree would add 3,072. Only forwarding that
// extends a closure past its sources grows the entry buffer (logged for the
// benchmark's neighbour traffic).
func TestFinalizeAllocations(t *testing.T) {
	// AllocsPerRun counts the whole process's mallocs and drops GOMAXPROCS to
	// 1, which moves the other P's timers onto this one; the runtime's
	// background scavenger then grows that P's timer heap the next time it
	// sleeps, one malloc that may land in the measured window. Dropping to one
	// P here, before the set-up below, lets that growth happen first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := topology.Hierarchical(32, 32, 1987)
	bb := backboneTrunks(g)
	faults := []Fault{{Trunk: bb[0], At: sim.Second}, {Trunk: bb[0], At: 2 * sim.Second, Up: true}}
	count := func(destsOf func(topology.NodeID) []topology.NodeID) (float64, int) {
		r := &routing{epochs: faultEpochs(faults)}
		allocs := testing.AllocsPerRun(1, func() {
			if err := r.finalize(g, faults, destsOf); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, r.dests
	}
	toZero := []topology.NodeID{0}
	one, d1 := count(func(v topology.NodeID) []topology.NodeID {
		if v == 0 {
			return nil
		}
		return toZero
	})
	all, dAll := count(allPairs(g))
	s, err := New(Config{Graph: g, Shards: 1, Seed: 1987, PktRate: 50, Dests: 4, DestRadius: 1, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	radius, dRadius := count(s.DestsOf)
	t.Logf("3 epochs: %.0f allocations for %d destination, %.0f for %d, %.0f for the benchmark's %d",
		one, d1, all, dAll, radius, dRadius)
	if one != all || all > 16 {
		t.Errorf("finalize made %.0f allocations for %d destination and %.0f for %d, want the same, <= 16", one, d1, all, dAll)
	}
}

// TestHier1kDataplaneLiveHeap is TestHier1kAdaptiveLiveHeap's static twin:
// the benchmark's hier1k_dataplane configuration at the size the benchmark
// runs it. 2.05 MB with the table kept to the closures (3,474 entries, 48 KB);
// 4.0 MB when it held every node's line toward every destination (2·D·N =
// 2.0 MB, every node being someone's neighbour), 4.4 MB with the three line
// types' 20,001-entry delay→utilization arrays as well, 6.4 MB with 32-bit
// link IDs in that table.
func TestHier1kDataplaneLiveHeap(t *testing.T) {
	const bound = 2.25 * (1 << 20)
	g := topology.Hierarchical(32, 32, 1987)
	s, live := liveHeapAfter(t, Config{Graph: g, Shards: 2, Seed: 1987, PktRate: 50, Dests: 4, DestRadius: 1})
	rs := s.RouteStats()
	t.Logf("%d nodes: %.2f MB live after New; route table %d entries, %d bytes (dense 2DN: %d)",
		g.NumNodes(), live/(1<<20), rs.Entries, rs.Bytes, rs.DenseBytes)
	if live > bound {
		t.Errorf("%.2f MB of live heap after New, want <= %.2f MB", live/(1<<20), bound/(1<<20))
	}
}
