package node

import (
	"fmt"
	"math"

	"repro/internal/flooding"
	"repro/internal/sim"
	"repro/internal/spf"
	"repro/internal/topology"
)

// Conservation is a snapshot of the packet ledger: every user packet's fate
// from t = 0.
type Conservation struct {
	Offered      int64
	Delivered    int64
	BufferDrops  int64
	LoopDrops    int64
	NoRouteDrops int64
	OutageDrops  int64
	InFlight     int64 // queued, on a transmitter, or propagating
}

// Balanced reports whether the ledger balances: offered equals delivered
// plus every drop class plus in-flight.
func (c Conservation) Balanced() bool { return c.Err() == nil }

// Plus returns the component-wise sum of two ledgers. The sharded runner
// composes its per-shard custody ledgers into one global Conservation with
// it: export/import counters cancel in the sum (every exported packet is
// imported exactly once or still on the wire), so the composed ledger obeys
// the same Balanced identity as a single-kernel run.
func (c Conservation) Plus(d Conservation) Conservation {
	return Conservation{
		Offered:      c.Offered + d.Offered,
		Delivered:    c.Delivered + d.Delivered,
		BufferDrops:  c.BufferDrops + d.BufferDrops,
		LoopDrops:    c.LoopDrops + d.LoopDrops,
		NoRouteDrops: c.NoRouteDrops + d.NoRouteDrops,
		OutageDrops:  c.OutageDrops + d.OutageDrops,
		InFlight:     c.InFlight + d.InFlight,
	}
}

// Err returns nil when balanced, or an error naming the imbalance.
func (c Conservation) Err() error {
	accounted := c.Delivered + c.BufferDrops + c.LoopDrops + c.NoRouteDrops + c.OutageDrops + c.InFlight
	if c.Offered == accounted {
		return nil
	}
	return fmt.Errorf("packet conservation violated: offered %d != accounted %d (missing %d): %+v",
		c.Offered, accounted, c.Offered-accounted, c)
}

// AuditRun checks the two invariants of a run that no ledger shows, for one
// kernel and the routing table it drives (nil without one). The kernel refused
// no schedule: an ErrPastEvent dropped anywhere, by any spelling, is an event
// that never fires. And every update a router holds still reads as
// flooding.NewUpdate published it: the PSNs, on every shard, share the
// pointer. Both engines' audits call it.
func AuditRun(k *sim.Kernel, routers *spf.Table) error {
	if n := k.Stats().Rejected; n != 0 {
		return fmt.Errorf("the kernel refused %d schedules as in the past; each is an event that never fired", n)
	}
	var err error
	if routers != nil {
		routers.Updates(func(u *flooding.Update) {
			if !u.Intact() {
				err = fmt.Errorf("update %d from node %d was written after NewUpdate published it; every PSN reads the same pointer", u.Seq, u.Origin)
			}
		})
	}
	return err
}

// AuditConvergence checks that, within each component of the links down
// leaves up, every PSN holds the latest update of each origin with no copy
// of an update in flight — the sequence number the origin's own router
// holds — and believes, for every link of such an origin, the cost the
// origin holds for it, the one its last update flooded. routers is indexed
// by node ID and may come from any number of tables; inFlight counts, by
// origin, the copies of its updates queued, on a transmitter, propagating
// or awaiting delivery, and held is the update copies the engine finds
// there by walking them, which the counts must add up to. A PSN cut off by
// a partition legitimately holds stale entries for the far side. An origin
// with nothing in flight needs no grace period: a flood reaches every PSN
// its component connects, and a repaired trunk resyncs both ends, so
// whatever a partition kept from either side has crossed by the time its
// last copy lands. An origin with a copy in flight is left for a later
// checkpoint. Both engines' convergence audits call it.
func AuditConvergence(g *topology.Graph, routers []*spf.IncrementalRouter, down func(topology.LinkID) bool, inFlight []int, held int) error {
	counted := 0
	for _, c := range inFlight {
		counted += c
	}
	if counted != held {
		return fmt.Errorf("the per-origin counts hold %d update copies in flight; the engine holds %d", counted, held)
	}
	comp := topology.Components(g, func(l topology.LinkID) bool { return !down(l) })
	latest := make([]uint64, len(routers)) // by origin; 0 while it floods nothing but its boot costs
	for o, r := range routers {
		r.Updates(func(u *flooding.Update) {
			if u.Origin == topology.NodeID(o) {
				latest[o] = u.Seq
			}
		})
	}
	flooded := make([]float64, g.NumLinks()) // by link: the cost its origin holds
	for _, l := range g.Links() {
		flooded[l.ID] = routers[l.From].Cost(l.ID)
	}
	has := make([]uint64, len(routers))
	for id, r := range routers {
		clear(has)
		r.Updates(func(u *flooding.Update) { has[u.Origin] = u.Seq })
		for o, seq := range latest {
			if inFlight[o] == 0 && comp[o] == comp[id] && has[o] != seq {
				return fmt.Errorf("PSN %s holds update %d from %s, which last flooded update %d",
					g.Node(topology.NodeID(id)).Name, has[o], g.Node(topology.NodeID(o)).Name, seq)
			}
		}
		for _, l := range g.Links() {
			if inFlight[l.From] != 0 || comp[id] != comp[l.From] {
				continue
			}
			// The flooded cost is copied verbatim into databases; convergence means bit-identical
			if got := r.Cost(l.ID); got != flooded[l.ID] {
				return fmt.Errorf("PSN %s believes cost %v for link %d (%s->%s), last flooded %v",
					g.Node(topology.NodeID(id)).Name, got, l.ID, g.Node(l.From).Name, g.Node(l.To).Name, flooded[l.ID])
			}
		}
	}
	return nil
}

// FloodTime bounds how long the floods a trunk repair starts take to settle
// on an otherwise idle network, given which links are down: the most a
// repaired line carries — its resync, one update from every origin, and up
// to two newer versions of each flooded back — over the slowest line in
// service, plus one flood crossing. The news reaches every node in at most D
// hops, D the most hops between two nodes that reach each other, and its
// last duplicate lands one hop later; each hop is one update's transmission
// on that line and the longest HopLatency. On the ARPANET map it is a few
// seconds, far below the MaxUpdateInterval refresh.
func FloodTime(g *topology.Graph, down func(topology.LinkID) bool) sim.Time {
	var vol, update float64
	for id := 0; id < g.NumNodes(); id++ {
		bits := float64(flooding.HeaderBits + flooding.PerLinkBits*g.Degree(topology.NodeID(id)))
		vol += bits
		update = max(update, bits)
	}
	slow := math.Inf(1)
	var lat sim.Time
	for _, l := range g.Links() {
		if !down(l.ID) {
			slow = min(slow, l.Type.Bandwidth())
			lat = max(lat, HopLatency(l))
		}
	}
	diameter := 0
	search := topology.NewSearch(g)
	up := func(l topology.LinkID) bool { return !down(l) }
	for s := 0; s < g.NumNodes(); s++ {
		reached := search.From(topology.NodeID(s), -1, up)
		diameter = max(diameter, search.Hops(reached[len(reached)-1]))
	}
	hop := update/slow + lat.Seconds()
	return sim.FromSeconds(3*vol/slow + float64(diameter+1)*hop)
}
