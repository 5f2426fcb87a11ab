package spf

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/flooding"
	"repro/internal/topology"
)

// checkDatabase walks a table's shared link-cost database and returns the
// first broken invariant: per origin the versions run newest first, none is
// empty, each counts exactly the bits of its holder set, a private one has one
// holder, no router holds two, no bit names a router the table lacks; every
// holder set belongs to exactly one version or to the free list, and a free
// one is all zero.
func checkDatabase(t *Table) error {
	used := make([]bool, len(t.sets)/t.words)
	claim := func(set int32, by string) error {
		if int(set) >= len(used) || used[set] {
			return fmt.Errorf("holder set %d of %s is out of the slab or already in use", set, by)
		}
		used[set] = true
		return nil
	}
	for o, vs := range t.db {
		seen := make([]uint64, t.words)
		for i, v := range vs {
			name := fmt.Sprintf("origin %d version %d (seq %d)", o, i, v.u.Seq)
			if err := claim(v.set, name); err != nil {
				return err
			}
			if v.u.Origin != topology.NodeID(o) {
				return fmt.Errorf("%s holds an update of origin %d", name, v.u.Origin)
			}
			if i > 0 && vs[i-1].u.Seq < v.u.Seq {
				return fmt.Errorf("%s is newer than the version before it (seq %d)", name, vs[i-1].u.Seq)
			}
			pop := 0
			for w, word := range t.sets[int(v.set)*t.words:][:t.words] {
				if seen[w]&word != 0 {
					return fmt.Errorf("%s: a router holds it and an earlier version too (word %d: %b & %b)", name, w, word, seen[w])
				}
				seen[w] |= word
				pop += bits.OnesCount64(word)
			}
			if pop == 0 || int(v.n) != pop {
				return fmt.Errorf("%s counts %d holders, its set has %d", name, v.n, pop)
			}
			if v.private && pop != 1 {
				return fmt.Errorf("%s is private to %d routers", name, pop)
			}
		}
		if r := len(t.routers); r%64 != 0 && seen[t.words-1]>>(r%64) != 0 {
			return fmt.Errorf("origin %d: a holder bit beyond router %d is set", o, r-1)
		}
	}
	for _, set := range t.free {
		if err := claim(set, "the free list"); err != nil {
			return err
		}
		if words := t.sets[int(set)*t.words:][:t.words]; slices.Max(words) != 0 {
			return fmt.Errorf("free holder set %d is not zero: %b", set, words)
		}
	}
	if i := slices.Index(used, false); i >= 0 {
		return fmt.Errorf("holder set %d is neither in use nor free", i)
	}
	return nil
}

// dbHarness feeds the routers of one shared table and as many tables of one
// (the layout in which a router's database is its own) the same operations,
// and after each requires them indistinguishable, every tree entry a line of
// the right PSN (checkLines), the multipath DAG over the tree an operation
// touched the one over a fresh Compute (checkDAG) and the shared database sound.
type dbHarness struct {
	t        testing.TB
	g        *topology.Graph
	shared   *Table
	alone    []*IncrementalRouter
	made     [][]*flooding.Update // by origin, oldest first
	inFlight int                  // most versions of one origin ever held at once
	widened  int                  // DAGs the positive tolerance made wider than tolerance 0's
}

func newDBHarness(t testing.TB, g *topology.Graph, roots []topology.NodeID, costs []float64) *dbHarness {
	h := &dbHarness{t: t, g: g, shared: NewTable(g, roots, costs), made: make([][]*flooding.Update, g.NumNodes())}
	for _, root := range roots {
		h.alone = append(h.alone, NewIncrementalRouter(g, root, costs))
	}
	return h
}

// mint makes the next version of origin o, bump sequence numbers on.
func (h *dbHarness) mint(o topology.NodeID, bump uint64, cost func(topology.LinkID) float64) *flooding.Update {
	seq := bump
	if n := len(h.made[o]); n > 0 {
		seq += h.made[o][n-1].Seq
	}
	u := wholeUpdate(h.g, o, seq, cost)
	h.made[o] = append(h.made[o], u)
	return u
}

func (h *dbHarness) accept(i int, u *flooding.Update) {
	h.t.Helper()
	if got, want := h.shared.Router(i).Accept(u), h.alone[i].Accept(u); got != want {
		h.t.Fatalf("router %d, update %d/%d: shared table accepted = %v, table of one %v", i, u.Origin, u.Seq, got, want)
	}
	h.check(i)
}

func (h *dbHarness) update(i int, l topology.LinkID, c float64) {
	h.t.Helper()
	h.shared.Router(i).Update(l, c)
	h.alone[i].Update(l, c)
	h.check(i)
}

// op decodes one operation from three bytes. Costs are small integers, so
// equal-cost paths are everywhere and a repair that read one wrong row shows.
func (h *dbHarness) op(router, target, arg byte) {
	h.t.Helper()
	i := int(router) % len(h.alone)
	o := topology.NodeID(int(target) % h.g.NumNodes())
	pick := int(arg >> 2)
	cost := func(l topology.LinkID) float64 { return float64(1 + (pick+int(l))%4) }
	if arg&3 != 2 && len(h.made[o]) == 0 {
		arg = 0
	}
	switch n := len(h.made[o]); arg & 3 {
	case 0: // the origin reports again
		h.accept(i, h.mint(o, uint64(1+pick%2), cost))
	case 1: // a copy of one of its last four updates: newer, repeated or stale
		h.accept(i, h.made[o][n-1-pick%min(n, 4)])
	case 2: // one link moves alone
		h.update(i, topology.LinkID(int(target)%h.g.NumLinks()), float64(1+pick%5))
	case 3: // the newest update again, as another object with the same sequence number
		u := *h.made[o][n-1]
		h.accept(i, &u)
	}
}

func (h *dbHarness) check(touched int) {
	h.t.Helper()
	for i, b := range h.alone {
		a := h.shared.Router(i)
		for l := 0; l < h.g.NumLinks(); l++ {
			if ca, cb := a.Cost(topology.LinkID(l)), b.Cost(topology.LinkID(l)); ca != cb {
				h.t.Fatalf("router %d: Cost(%d) = %v on the shared table, %v alone", i, l, ca, cb)
			}
		}
		if !sameTree(a.Tree(), b.Tree()) {
			h.t.Fatalf("router %d: trees differ between the shared table and a table of one", i)
		}
		if err := checkLines(a); err != nil {
			h.t.Fatalf("router %d: %v", i, err)
		}
		if a.accepted != b.accepted || a.duplicates != b.duplicates || a.incremental != b.incremental ||
			a.skipped != b.skipped || a.touched != b.touched {
			h.t.Fatalf("router %d: counters differ: shared %d/%d/%d/%d/%d, alone %d/%d/%d/%d/%d", i,
				a.accepted, a.duplicates, a.incremental, a.skipped, a.touched,
				b.accepted, b.duplicates, b.incremental, b.skipped, b.touched)
		}
	}
	h.checkDAG(touched, h.shared.Router(touched))
	if err := checkDatabase(h.shared); err != nil {
		h.t.Fatal(err)
	}
	for _, vs := range h.shared.db {
		h.inFlight = max(h.inFlight, len(vs))
	}
}

// dagTol is checkDAG's positive tolerance: costs are small integers, so it
// admits paths one unit longer than the shortest and widens the DAG.
const dagTol = 1.5

// checkDAG requires the multipath DAG over a router's tree, at tolerance 0 and
// at dagTol, to be the DAG over a fresh Compute with the router's costs: a
// multipath PSN reads its distances from the repaired tree, never a Dijkstra.
func (h *dbHarness) checkDAG(i int, r *IncrementalRouter) {
	h.t.Helper()
	fresh := Compute(h.g, r.root, r.Cost)
	var exact *DAG
	for _, tol := range []float64{0, dagTol} {
		got, want := ComputeDAG(r.Tree(), r.Cost, tol), ComputeDAG(fresh, r.Cost, tol)
		for d := 0; d < h.g.NumNodes(); d++ {
			dst := topology.NodeID(d)
			if !slices.Equal(got.NextHops(dst), want.NextHops(dst)) {
				h.t.Fatalf("router %d, tolerance %v: first hops to %d are %v over its tree, %v over a fresh Compute",
					i, tol, d, got.NextHops(dst), want.NextHops(dst))
			}
			if exact != nil && len(got.NextHops(dst)) > len(exact.NextHops(dst)) {
				h.widened++
			}
		}
		exact = got
	}
}

// converge gives every router a fresh update of every origin; afterwards the
// database must be what §2.2 says it is, one version per origin, held by all.
func (h *dbHarness) converge() {
	h.t.Helper()
	for o := range h.made {
		u := h.mint(topology.NodeID(o), 1, func(l topology.LinkID) float64 { return float64(1 + l%3) })
		for i := range h.alone {
			h.accept(i, u)
		}
		if vs := h.shared.db[o]; len(vs) != 1 || vs[0].u != u || int(vs[0].n) != len(h.alone) {
			h.t.Fatalf("origin %d: every router accepted update %d, yet the table holds %d versions", o, u.Seq, len(vs))
		}
	}
	if free, sets := len(h.shared.free), len(h.shared.sets)/h.shared.words; sets-free != len(h.made) {
		h.t.Fatalf("%d origins converged, %d of %d holder sets still in use", len(h.made), sets-free, sets)
	}
}

// R routers on one table against R tables of one, under a random interleaving
// of new, out-of-order, repeated and twin updates and single-link Updates.
// The last router stops listening a third of the way in, so the versions it
// holds stay alive while the others move on; 70 routers on 10 nodes put the
// holder sets across a word boundary, and three doubled trunks give the DAGs
// parallel first hops. (Leaving a router's bit set in the version it left
// fails the walk at the first supersession.)
func TestSharedDatabaseMatchesTablesOfOne(t *testing.T) {
	for _, tc := range []struct{ nodes, routers, steps int }{{10, 70, 400}, {14, 9, 500}, {6, 3, 300}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := topology.Random(tc.nodes, 3, seed)
			addParallelTrunks(g, rng, 3)
			costs := make([]float64, g.NumLinks())
			for i := range costs {
				costs[i] = float64(1 + rng.Intn(4))
			}
			roots := make([]topology.NodeID, tc.routers)
			for i := range roots {
				roots[i] = topology.NodeID(i % tc.nodes)
			}
			h := newDBHarness(t, g, roots, costs)
			laggard := tc.routers - 1
			for step := 0; step < tc.steps; step++ {
				router := rng.Intn(tc.routers)
				if router == laggard && step > tc.steps/3 {
					continue
				}
				h.op(byte(router), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			if h.inFlight < 3 {
				t.Errorf("%d routers, seed %d: at most %d versions of an origin in flight; the run proves little", tc.routers, seed, h.inFlight)
			}
			if h.widened == 0 {
				t.Errorf("%d routers, seed %d: tolerance %v never widened a DAG; the run proves little", tc.routers, seed, dagTol)
			}
			behind := 0
			for o := range h.shared.db {
				if i := h.shared.Router(laggard).held(topology.NodeID(o)); i > 0 {
					behind++
				}
			}
			if behind == 0 {
				t.Errorf("%d routers, seed %d: the router that stopped listening is behind on no origin", tc.routers, seed)
			}
			h.converge()
		}
	}
}

// The table holds a superseded update only while some router does: when the
// last holder accepts a newer one the old update must be garbage.
func TestSupersededUpdateIsCollectable(t *testing.T) {
	g, _ := diamond()
	tab := NewTable(g, allRoots(g), unitCosts(g))
	collected := make(chan struct{})
	func() {
		old := wholeUpdate(g, 0, 1, func(topology.LinkID) float64 { return 2 })
		runtime.SetFinalizer(old, func(*flooding.Update) { close(collected) })
		for i := 0; i < g.NumNodes(); i++ {
			tab.Router(i).Accept(old)
		}
	}()
	next := wholeUpdate(g, 0, 2, func(topology.LinkID) float64 { return 3 })
	for i := 0; i < g.NumNodes(); i++ {
		tab.Router(i).Accept(next)
	}
	for tries := 0; tries < 100; tries++ {
		runtime.GC()
		select {
		case <-collected:
			if err := checkDatabase(tab); err != nil {
				t.Error(err)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("an update no router holds any more is still reachable from the table")
	runtime.KeepAlive(tab)
}

// FuzzTableOps runs (router, target, arg) byte triples through the harness of
// TestSharedDatabaseMatchesTablesOfOne: five routers on one table of a
// six-node graph with two doubled trunks, two of them at one root, against
// five tables of one. The seeds are testdata/fuzz/FuzzTableOps, one per
// situation named there.
func FuzzTableOps(f *testing.F) {
	g := topology.Random(6, 3, 1)
	addParallelTrunks(g, rand.New(rand.NewSource(1)), 2)
	costs := make([]float64, g.NumLinks())
	for i := range costs {
		costs[i] = float64(1 + i%3)
	}
	roots := []topology.NodeID{0, 1, 2, 3, 0}
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newDBHarness(t, g, roots, costs)
		for ; len(ops) >= 3; ops = ops[3:] {
			h.op(ops[0], ops[1], ops[2])
		}
		h.converge()
	})
}
