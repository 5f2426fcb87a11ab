// Package trace is the simulator's one event vocabulary: drops, link
// changes, measurements, originations and reroutes, each an Event that the
// PSN involved records. Both packet engines record the same events, and
// every trace is in one order — by time, then node, each node's events in
// its own event order (Sort) — which neither the engine nor the shard count
// changes. A Ring keeps a bounded tail of a trace, so long runs can be
// diagnosed ("why did drops spike at t=412?") without unbounded memory. An
// engine records events only when tracing is on; off, it costs one branch
// per event site.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind classifies an event.
type Kind int

// The event kinds, each recorded by the PSN named in the event.
const (
	PacketDropped   Kind = iota // buffer overflow (Figure 13's signal), at the sending PSN
	PacketNoRoute               // no line in service toward the destination
	PacketLooped                // hop limit reached during a routing transient
	PacketOutage                // packet destroyed by a trunk failure (queued or on a transmitter)
	LinkDown                    // a link taken out of service, at its sending end
	LinkUp                      // a link restored, at its sending end
	Measure                     // a line's measurement period ended and fed its cost module
	UpdateOriginate             // a PSN flooded a routing update
	Reroute                     // an accepted update moved next hops toward the PSN's destinations

	numKinds // count of kinds; keep last
)

var kindNames = [numKinds]string{"drop-buffer", "drop-noroute", "drop-loop", "drop-outage",
	"link-down", "link-up", "meas", "originate", "reroute"}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one logged occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	Node topology.NodeID // the PSN that recorded it
	Link topology.LinkID // the link involved (NoLink if none)
	// Pkt is a drop's Packet.Seq, an origination's update sequence number,
	// or a reroute's update origin<<32 | its sequence number's low word.
	Pkt uint64
	// Count is the packets a measurement averaged, the lines an origination
	// advertises, or the next hops a reroute moved.
	Count int64
	Avg   float64 // a measurement's mean delay, seconds
	Cost  float64 // a measurement's cost reading after it
}

// Render writes the event as one line of text, without the newline, naming
// its PSN node.
func (e Event) Render(b *strings.Builder, node string) {
	fmt.Fprintf(b, "%s %s %s link=%d", e.At, node, e.Kind, e.Link)
	switch e.Kind {
	case Measure:
		fmt.Fprintf(b, " n=%d avg=%.9f cost=%.6g", e.Count, e.Avg, e.Cost)
	case LinkDown, LinkUp:
		// state change only
	case UpdateOriginate:
		fmt.Fprintf(b, " seq=%d links=%d", e.Pkt, e.Count)
	case Reroute:
		fmt.Fprintf(b, " origin=%d seq=%d changed=%d", e.Pkt>>32, e.Pkt&0xffffffff, e.Count)
	default:
		fmt.Fprintf(b, " pkt=%#016x", e.Pkt)
	}
}

// String renders the event, its PSN by number.
func (e Event) String() string {
	var b strings.Builder
	e.Render(&b, fmt.Sprintf("node=%d", e.Node))
	return b.String()
}

// Log is the events one goroutine records, in the order it records them:
// each node's in its own event order.
type Log []Event

// Add records e.
// Allocates: the log grows amortized, to what its engine keeps between drains
func (l *Log) Add(e Event) { *l = append(*l, e) }

// Sort puts events in the trace's order: by time, then node, each node's
// events as they were recorded (a stable sort). A node's events are recorded
// by one goroutine in its own event order, which is the same on both engines
// and on every partition of the sharded one, so the sorted trace is too.
func Sort(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Node, b.Node))
	})
}

// Ring is a fixed-capacity event log. Its memory grows with the events it
// keeps, up to its capacity, so any positive capacity is valid. The zero
// value is unusable; create one with NewRing. A nil *Ring is safe to Add to
// (no-op), so callers can emit unconditionally.
type Ring struct {
	events  []Event
	limit   int // the capacity
	next    int
	wrapped bool
	dropped int64 // events overwritten
	byKind  [numKinds]int64
}

// NewRing creates a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Ring{limit: capacity}
}

// Add appends an event, overwriting the oldest when full. Safe on nil.
func (r *Ring) Add(e Event) {
	if r == nil {
		return
	}
	if int(e.Kind) >= 0 && int(e.Kind) < len(r.byKind) {
		r.byKind[e.Kind]++
	}
	if n := len(r.events); n < r.limit {
		if n == cap(r.events) { // double, never past the capacity
			r.events = append(make([]Event, 0, min(max(2*n, 64), r.limit)), r.events...)
		}
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % r.limit
	r.wrapped = true
	r.dropped++
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Overwritten returns how many events were lost to capacity.
func (r *Ring) Overwritten() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Count returns the total number of events of the kind ever added,
// including overwritten ones.
func (r *Ring) Count(k Kind) int64 {
	if r == nil || int(k) < 0 || int(k) >= len(r.byKind) {
		return 0
	}
	return r.byKind[k]
}

// Events returns the retained events in the order they were added (a copy).
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	if r.wrapped {
		out = append(out, r.events[r.next:]...)
		out = append(out, r.events[:r.next]...)
	} else {
		out = append(out, r.events...)
	}
	return out
}

// OfKind returns the retained events of one kind, in the order they were
// added.
func (r *Ring) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders the retained events, one per line, most recent last.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
