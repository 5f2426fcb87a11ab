package topology

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a PSN within a Graph (dense, 0-based).
type NodeID int

// LinkID identifies a simplex link within a Graph (dense, 0-based).
type LinkID int

// Invalid sentinel IDs.
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// MaxLines is the most lines (trunks) one PSN can have: line numbers are
// 16-bit, and the last value is kept for "no line".
const MaxLines = math.MaxUint16

// Node is a PSN.
type Node struct {
	ID   NodeID
	Name string
}

// Link is a simplex communication medium from one PSN to another
// (the paper's definition of "link"). A physical trunk is represented by
// two Links in opposite directions sharing a Trunk index.
type Link struct {
	ID    LinkID
	From  NodeID
	To    NodeID
	Type  LineType
	Trunk int // index of the bidirectional trunk this link belongs to

	// PropDelay is the configured one-way propagation delay in seconds.
	PropDelay float64
}

// Reverse returns the ID of the opposite-direction link of the same trunk.
// By construction the two simplex links of trunk t have IDs 2t and 2t+1.
func (l Link) Reverse() LinkID {
	if l.ID%2 == 0 {
		return l.ID + 1
	}
	return l.ID - 1
}

// Graph is a network topology. Build one with New, AddNode and AddTrunk;
// it is immutable during a simulation run.
type Graph struct {
	nodes  []Node
	links  []Link
	out    [][]LinkID // outgoing link IDs per node
	in     [][]LinkID // incoming link IDs per node
	byName map[string]NodeID
	trunks int

	// By link: its line number at either end, the index in out[From] and in
	// in[To]. A PSN's forwarding table names one of its own lines, so 16 bits
	// hold it (AddTrunk guards); out[n][i] and in[n][i] are the two halves of
	// one trunk, n's line i.
	outLine []uint16
	inLine  []uint16
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// AddNode adds a PSN with the given name and returns its ID.
// Names must be unique and non-empty.
func (g *Graph) AddNode(name string) NodeID {
	if name == "" {
		panic("topology: empty node name")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("topology: duplicate node name %q", name))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byName[name] = id
	return id
}

// AddTrunk adds a bidirectional trunk between a and b with the given line
// type and the line type's default propagation delay. It returns the two
// simplex link IDs (a→b, b→a).
func (g *Graph) AddTrunk(a, b NodeID, lt LineType) (LinkID, LinkID) {
	return g.AddTrunkDelay(a, b, lt, lt.DefaultPropDelay())
}

// AddTrunkDelay is AddTrunk with an explicit one-way propagation delay in
// seconds.
func (g *Graph) AddTrunkDelay(a, b NodeID, lt LineType, propDelay float64) (LinkID, LinkID) {
	if !g.validNode(a) || !g.validNode(b) {
		panic("topology: AddTrunk with unknown node")
	}
	if a == b {
		panic("topology: self-loop trunk")
	}
	if !lt.Valid() {
		panic("topology: AddTrunk with invalid line type")
	}
	if propDelay < 0 {
		panic("topology: negative propagation delay")
	}
	for _, n := range [2]NodeID{a, b} {
		if len(g.out[n]) >= MaxLines {
			panic(fmt.Sprintf("topology: node %q has %d lines; line numbers are 16-bit", g.nodes[n].Name, MaxLines))
		}
	}
	trunk := g.trunks
	g.trunks++
	ab := g.addLink(a, b, lt, trunk, propDelay)
	ba := g.addLink(b, a, lt, trunk, propDelay)
	return ab, ba
}

func (g *Graph) addLink(from, to NodeID, lt LineType, trunk int, prop float64) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: id, From: from, To: to, Type: lt, Trunk: trunk, PropDelay: prop,
	})
	g.outLine = append(g.outLine, uint16(len(g.out[from])))
	g.inLine = append(g.inLine, uint16(len(g.in[to])))
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

func (g *Graph) validNode(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes returns the number of PSNs.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of simplex links (2 × NumTrunks).
func (g *Graph) NumLinks() int { return len(g.links) }

// NumTrunks returns the number of bidirectional trunks.
func (g *Graph) NumTrunks() int { return g.trunks }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns all links in ID order. The caller must not modify the slice.
func (g *Graph) Links() []Link { return g.links }

// Nodes returns all nodes in ID order. The caller must not modify the slice.
func (g *Graph) Nodes() []Node { return g.nodes }

// Out returns the IDs of links leaving n. The caller must not modify it.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the IDs of links entering n. The caller must not modify it.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// OutLine returns l's line number at the PSN it leaves: Out(From)[OutLine(l)] == l.
func (g *Graph) OutLine(l LinkID) int { return int(g.outLine[l]) }

// InLine returns l's line number at the PSN it enters: In(To)[InLine(l)] == l.
func (g *Graph) InLine(l LinkID) int { return int(g.inLine[l]) }

// Lookup returns the node with the given name.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics on a missing name; for tests and the
// hand-built topologies.
func (g *Graph) MustLookup(name string) NodeID {
	id, ok := g.byName[name]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q", name))
	}
	return id
}

// FindTrunk returns the a→b simplex link of the first trunk joining a and b.
func (g *Graph) FindTrunk(a, b NodeID) (LinkID, bool) {
	for _, id := range g.out[a] {
		if g.links[id].To == b {
			return id, true
		}
	}
	return NoLink, false
}

// Degree returns the number of trunks attached to n.
func (g *Graph) Degree(n NodeID) int { return len(g.out[n]) }

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	return len(g.nodes) == 0 || len(NewSearch(g).From(0, -1, nil)) == len(g.nodes)
}

// Validate checks structural invariants: connectivity, trunk pairing, and
// ID consistency. It returns a descriptive error for the first violation.
func (g *Graph) Validate() error {
	for i, n := range g.nodes {
		if int(n.ID) != i {
			return fmt.Errorf("topology: node %d has ID %d", i, n.ID)
		}
	}
	for i, l := range g.links {
		if int(l.ID) != i {
			return fmt.Errorf("topology: link %d has ID %d", i, l.ID)
		}
		if !g.validNode(l.From) || !g.validNode(l.To) {
			return fmt.Errorf("topology: link %d has invalid endpoints", i)
		}
		rev := g.links[l.Reverse()]
		if rev.From != l.To || rev.To != l.From || rev.Trunk != l.Trunk {
			return fmt.Errorf("topology: link %d not properly paired with its reverse", i)
		}
		if rev.Type != l.Type {
			return fmt.Errorf("topology: trunk %d has mismatched line types", l.Trunk)
		}
		if o, in := g.OutLine(l.ID), g.InLine(l.ID); o >= len(g.out[l.From]) || g.out[l.From][o] != l.ID ||
			in >= len(g.in[l.To]) || g.in[l.To][in] != l.ID {
			return fmt.Errorf("topology: link %d is not line %d out of node %d and line %d into node %d", i, o, l.From, in, l.To)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("topology: graph is not connected")
	}
	return nil
}

// TrunkNames returns human-readable "A-B (56T)" labels for every trunk,
// sorted, used in reports.
func (g *Graph) TrunkNames() []string {
	names := make([]string, 0, g.trunks)
	for t := 0; t < g.trunks; t++ {
		l := g.links[2*t]
		names = append(names, fmt.Sprintf("%s-%s (%s)",
			g.nodes[l.From].Name, g.nodes[l.To].Name, l.Type))
	}
	sort.Strings(names)
	return names
}
