package check

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/spf"
	"repro/internal/topology"
)

// OutageCost models a failed link in the SPF oracle: the cost a PSN floods
// for a line it wants traffic off of entirely. It is finite (the spf
// package requires positive finite costs) but dwarfs any sum of ordinary
// generated costs.
const OutageCost = 1e6

// Router is the forwarding surface the SPF differential oracle verifies:
// apply a link-cost change, then answer distance, next-hop and path
// queries. The production implementation is internal/spf's
// IncrementalRouter; tests inject deliberately broken implementations to
// prove the oracle catches them.
type Router interface {
	Update(l topology.LinkID, cost float64)
	Dist(dst topology.NodeID) float64
	NextHop(dst topology.NodeID) topology.LinkID
	// Path is the router's own shortest path to dst, root first.
	Path(dst topology.NodeID) []topology.LinkID
}

// RouterFactory builds the Router under test for one root.
type RouterFactory func(g *topology.Graph, root topology.NodeID, costs []float64) Router

// incrRouter adapts *spf.IncrementalRouter: its Tree is repaired in place,
// so it is re-read on every query.
type incrRouter struct{ r *spf.IncrementalRouter }

func (a incrRouter) Update(l topology.LinkID, c float64)       { a.r.Update(l, c) }
func (a incrRouter) Dist(d topology.NodeID) float64            { return a.r.Tree().Dist(d) }
func (a incrRouter) NextHop(d topology.NodeID) topology.LinkID { return a.r.Tree().NextHop(d) }
func (a incrRouter) Path(d topology.NodeID) []topology.LinkID  { return a.r.Tree().Path(d) }

// IncrementalFactory is the production RouterFactory: the incremental
// repair path of internal/spf.
func IncrementalFactory(g *topology.Graph, root topology.NodeID, costs []float64) Router {
	return incrRouter{spf.NewIncrementalRouter(g, root, costs)}
}

// SPFOp is one link-cost change of an oracle trial.
type SPFOp struct {
	Link topology.LinkID
	Cost float64
}

// CheckSPF runs one differential-oracle trial: a generated topology with
// random costs, one Router per root, and a random stream of cost changes
// (including outage-grade jumps and repairs). After every change, every
// root's distances must equal a fresh from-scratch Dijkstra exactly and a
// naive Bellman-Ford reference to within float tolerance, each next hop
// must be the first line of the root's own tree path, and hop-by-hop
// forwarding between every (src, dst) pair must be loop-free. On failure
// the op stream is minimized and rendered as a reproducer.
func CheckSPF(rng *rand.Rand, seed int64, factory RouterFactory) *Failure {
	f, _, _, _ := checkSPF(rng, seed, factory)
	return f
}

func checkSPF(rng *rand.Rand, seed int64, factory RouterFactory) (*Failure, []SPFOp, Topo, []float64) {
	topo := GenTopology(rng, 30)
	integer := rng.Intn(2) == 0
	costs := GenCosts(rng, topo.G, integer)

	n := topo.G.NumNodes()
	nOps := 12 + rng.Intn(36)
	if n > 15 {
		nOps /= 2
	}
	ops := make([]SPFOp, nOps)
	down := make(map[topology.LinkID]bool)
	for i := range ops {
		l := topology.LinkID(rng.Intn(topo.G.NumLinks()))
		var c float64
		switch {
		case down[l]: // repair an outaged link
			c = GenCost(rng, integer)
			delete(down, l)
		case rng.Intn(10) == 0: // outage
			c = OutageCost
			down[l] = true
		default:
			c = GenCost(rng, integer)
		}
		ops[i] = SPFOp{Link: l, Cost: c}
	}

	routers, cur := buildRouters(topo.G, costs, factory)
	ws := spf.NewWorkspace()
	if err := verifySPF(topo.G, cur, routers, ws); err != nil {
		// The initial build is already wrong; minimization has nothing to
		// remove.
		return spfFailure(seed, topo, costs, nil, err), nil, topo, costs
	}
	for k, op := range ops {
		applyOp(routers, cur, op)
		if err := verifySPF(topo.G, cur, routers, ws); err != nil {
			failing := ops[:k+1]
			min := Minimize(failing, func(sub []SPFOp) bool {
				return replaySPFFails(topo.G, costs, sub, factory)
			})
			return spfFailure(seed, topo, costs, min, err), min, topo, costs
		}
	}
	return nil, nil, topo, costs
}

func buildRouters(g *topology.Graph, costs []float64, factory RouterFactory) ([]Router, []float64) {
	routers := make([]Router, g.NumNodes())
	for i := range routers {
		routers[i] = factory(g, topology.NodeID(i), costs)
	}
	return routers, append([]float64(nil), costs...)
}

func applyOp(routers []Router, cur []float64, op SPFOp) {
	cur[op.Link] = op.Cost
	for _, r := range routers {
		r.Update(op.Link, op.Cost)
	}
}

// replaySPFFails rebuilds the routers, applies the op subsequence and
// reports whether verification fails afterwards — the predicate ddmin
// minimizes against.
func replaySPFFails(g *topology.Graph, costs []float64, ops []SPFOp, factory RouterFactory) bool {
	routers, cur := buildRouters(g, costs, factory)
	for _, op := range ops {
		applyOp(routers, cur, op)
	}
	return verifySPF(g, cur, routers, spf.NewWorkspace()) != nil
}

// verifySPF checks every root's Router against the two references and
// checks global hop-by-hop loop freedom.
func verifySPF(g *topology.Graph, cur []float64, routers []Router, ws *spf.Workspace) error {
	n := g.NumNodes()
	costFn := func(l topology.LinkID) float64 { return cur[l] }
	for root := 0; root < n; root++ {
		r := routers[root]
		fresh := spf.ComputeInto(ws, g, topology.NodeID(root), costFn)
		bf := bellmanFordDist(g, topology.NodeID(root), cur)
		for dst := 0; dst < n; dst++ {
			got := r.Dist(topology.NodeID(dst))
			want := fresh.Dist(topology.NodeID(dst))
			// Bit-exact differential oracle: incremental SPF must match a fresh Dijkstra exactly, same ops in same order
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				return fmt.Errorf("root %d: dist to %d = %v, fresh Dijkstra says %v", root, dst, got, want)
			}
			if ref := bf[dst]; !distClose(got, ref) {
				return fmt.Errorf("root %d: dist to %d = %v, Bellman-Ford reference says %v", root, dst, got, ref)
			}
			next := r.NextHop(topology.NodeID(dst))
			switch {
			case dst == root || math.IsInf(got, 1):
				if next != topology.NoLink {
					return fmt.Errorf("root %d: next hop to %d is %d, want none", root, dst, next)
				}
			case next == topology.NoLink:
				return fmt.Errorf("root %d: reachable node %d has no next hop", root, dst)
			case g.Link(next).From != topology.NodeID(root):
				return fmt.Errorf("root %d: next hop to %d is link %d leaving node %d", root, dst, next, g.Link(next).From)
			default:
				// The forwarding line and the tree can disagree where distances tie to the last ulp.
				if path := r.Path(topology.NodeID(dst)); len(path) == 0 || path[0] != next {
					return fmt.Errorf("root %d: next hop to %d is link %d, but its tree path is %v", root, dst, next, path)
				}
			}
		}
	}
	// Loop freedom of hop-by-hop forwarding: following each node's own next
	// hop toward dst must reach dst within n hops whenever the source
	// believes dst reachable. With every router holding true shortest
	// distances this is a theorem; a tie-break or repair bug breaks it.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || math.IsInf(routers[src].Dist(topology.NodeID(dst)), 1) {
				continue
			}
			at := topology.NodeID(src)
			for hops := 0; ; hops++ {
				if at == topology.NodeID(dst) {
					break
				}
				if hops > n {
					return fmt.Errorf("forwarding loop from %d to %d", src, dst)
				}
				next := routers[at].NextHop(topology.NodeID(dst))
				if next == topology.NoLink {
					return fmt.Errorf("forwarding from %d to %d strands at %d", src, dst, at)
				}
				at = g.Link(next).To
			}
		}
	}
	return nil
}

// distClose compares a distance against the Bellman-Ford reference with a
// relative tolerance: both algorithms sum the same path costs left to
// right, so they agree to the last bit in practice, but the oracle does not
// rely on that.
func distClose(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func spfFailure(seed int64, topo Topo, costs []float64, ops []SPFOp, err error) *Failure {
	var b strings.Builder
	fmt.Fprintf(&b, "topo: %s\n", topo.Desc)
	b.WriteString("costs:")
	for _, c := range costs {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	b.WriteByte('\n')
	for _, op := range ops {
		fmt.Fprintf(&b, "update %d %s\n", op.Link, strconv.FormatFloat(op.Cost, 'g', -1, 64))
	}
	fmt.Fprintf(&b, "error: %v\n", err)
	return &Failure{
		Check: "spf-differential",
		Seed:  seed,
		Topo:  topo.Desc,
		Err:   err.Error(),
		Repro: b.String(),
	}
}
