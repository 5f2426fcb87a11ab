package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topology"
)

// refTree is the static plane's tree as it stood before the tables held line
// numbers — 32-bit global link IDs, a topology.Link copy per relaxation, a
// fresh heap behind two closures per call — kept as the oracle of
// TestStaticRoutesAgainstLinkIDReference: out[v] is v's next-hop LinkID toward
// dest, -1 at dest itself or when unreachable.
func refTree(g *topology.Graph, cost []sim.Time, dest topology.NodeID, out []int32) {
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
			if dist[l.To] == infDist {
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

// checkRoutes holds r, built for g and destsOf, to refTree. For every
// destination it walks the closure itself — the destination's sources, then
// every node a reference next hop leads to, the destination excluded — and
// requires an entry at each node of it whose line is the reference's link.
// The table may keep nothing else.
func checkRoutes(t *testing.T, g *topology.Graph, destsOf func(topology.NodeID) []topology.NodeID, r *routing) {
	t.Helper()
	n := g.NumNodes()
	cost := make([]sim.Time, g.NumLinks())
	for i, l := range g.Links() {
		cost[i] = linkCost(l)
	}
	ref := make([]int32, n)
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
		refTree(g, cost, dst, ref)
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
			line := r.nextLine(dst, v)
			if ref[v] < 0 || g.Out(v)[line] != topology.LinkID(ref[v]) {
				t.Fatalf("node %d toward %d: line %d of its %d, reference link %d",
					v, d, line, g.Degree(v), ref[v])
			}
			if w := g.Link(topology.LinkID(ref[v])).To; !in[w] {
				in[w] = true
				queue = append(queue, w)
			}
		}
	}
	kept := 0
	for _, e := range r.rec {
		if e.key != 0 {
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
// every (destination, node) entry is the reference's link, Out(v)[line] ==
// ref. The goldens see the table only end to end, through the packets it
// routes.
func TestStaticRoutesAgainstLinkIDReference(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != entryBytes {
		t.Fatalf("an entry is %d bytes, RouteStats counts %d", size, entryBytes)
	}
	hier := testGraph(t)

	// Two equal trunks side by side between A and B: only the line number
	// tells them apart, and the tie must go to the lower link ID.
	twin := topology.New()
	a, b, c := twin.AddNode("A"), twin.AddNode("B"), twin.AddNode("C")
	lo, _ := twin.AddTrunk(a, b, topology.T56)
	twin.AddTrunk(a, b, topology.T56)
	twin.AddTrunk(b, c, topology.T56)

	// Lines past 255 at the hub: its line toward spoke Si is line i.
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
		name string
		g    *topology.Graph
		also func(t *testing.T, r *routing)
	}{
		{"hier:4x8", hier, nil},
		{"parallel equal-cost trunks", twin, func(t *testing.T, r *routing) {
			for _, dst := range []topology.NodeID{b, c} {
				if line := r.nextLine(dst, a); line != 0 || twin.Out(a)[line] != lo {
					t.Errorf("A toward %d: line %d, want 0 (link %d, the lower ID of the tie)", dst, line, lo)
				}
			}
		}},
		{"300-line hub", hub, func(t *testing.T, r *routing) {
			for i := range spokes {
				if line := r.nextLine(topology.NodeID(1+i), h); line != uint16(i) {
					t.Errorf("hub toward S%d: line %d, want %d", i, line, i)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			destsOf := allPairs(g)
			r, err := buildRouting(g, destsOf)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutes(t, g, destsOf, r)
			if tc.also != nil {
				tc.also(t, r)
			}
		})
	}
}

// TestStaticRouteClosures holds tables built from the traffic model's own
// destination sets — uniform and within a radius — to checkRoutes, on small
// hier and waxman graphs: every entry the reference's, every closure
// complete, nothing kept past it. Each trial also draws a fault script —
// faults sharing instants, repairs, partitions taking every trunk of a node
// down at once — which the static plane refuses by name: no PSN there would
// hear of a failure.
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
				if len(faults) > 0 {
					if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Faults need Adaptive") {
						t.Fatalf("static plane with %d faults: New = %v, want it refused by name", len(faults), err)
					}
					cfg.Faults = nil
				}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkRoutes(t, g, s.DestsOf, s.routes)
			})
	}
}

// A lookup the closure does not hold is a routing bug, not a packet without a
// route: it panics by name instead of dropping the packet.
func TestStaticRouteOutsideClosurePanics(t *testing.T) {
	g := testGraph(t)
	src, dst := topology.NodeID(0), topology.NodeID(1)
	r, err := buildRouting(g, func(v topology.NodeID) []topology.NodeID {
		if v == src {
			return []topology.NodeID{dst}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.record(src, dst) < 0 {
		t.Fatal("the source has no entry toward its destination")
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
			r.nextLine(q.to, q.from)
		}()
	}
}

// TestFinalizeAllocations: building the table allocates a fixed set of
// arrays — the trees' shared scratch, the sources, the closures and the
// table — however many destinations there are. On hier:32x32, every node
// sending to node 0 (one destination) and every node sending to every other
// (1,024) allocate alike; a heap or a closure made per tree would add 1,024.
// Only forwarding that extends a closure past its sources grows the entry
// buffer (logged for the benchmark's neighbour traffic).
func TestFinalizeAllocations(t *testing.T) {
	// AllocsPerRun counts the whole process's mallocs and drops GOMAXPROCS to
	// 1, which moves the other P's timers onto this one; the runtime's
	// background scavenger then grows that P's timer heap the next time it
	// sleeps, one malloc that may land in the measured window. Dropping to one
	// P here, before the set-up below, lets that growth happen first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := topology.Hierarchical(32, 32, 1987)
	count := func(destsOf func(topology.NodeID) []topology.NodeID) (float64, int) {
		r := &routing{}
		allocs := testing.AllocsPerRun(1, func() {
			if err := r.finalize(g, destsOf); err != nil {
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
	s, err := New(Config{Graph: g, Shards: 1, Seed: 1987, PktRate: 50, Dests: 4, DestRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	radius, dRadius := count(s.DestsOf)
	t.Logf("%.0f allocations for %d destination, %.0f for %d, %.0f for the benchmark's %d",
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
