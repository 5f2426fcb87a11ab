package trace

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		r.Add(Event{At: sim.Time(i), Kind: PacketDropped})
	}
	if r.Len() != 3 || r.Overwritten() != 0 {
		t.Fatalf("Len=%d Overwritten=%d", r.Len(), r.Overwritten())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.At != sim.Time(i) {
			t.Errorf("event %d at %v", i, e.At)
		}
	}
}

func TestRingWraps(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Event{At: sim.Time(i), Kind: PacketDropped})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Overwritten() != 2 {
		t.Errorf("Overwritten = %d, want 2", r.Overwritten())
	}
	evs := r.Events()
	// Chronological: 2, 3, 4.
	for i, want := range []sim.Time{2, 3, 4} {
		if evs[i].At != want {
			t.Errorf("event %d at %v, want %v", i, evs[i].At, want)
		}
	}
	// Counts include overwritten events.
	if r.Count(PacketDropped) != 5 {
		t.Errorf("Count = %d, want 5", r.Count(PacketDropped))
	}
}

func TestNilRingSafe(t *testing.T) {
	var r *Ring
	r.Add(Event{Kind: LinkDown}) // must not panic
	if r.Len() != 0 || r.Count(LinkDown) != 0 || r.Events() != nil || r.Overwritten() != 0 {
		t.Error("nil ring should be inert")
	}
}

func TestOfKindAndDump(t *testing.T) {
	r := NewRing(10)
	r.Add(Event{At: 1, Kind: LinkDown, Node: 2, Link: 3})
	r.Add(Event{At: 2, Kind: PacketDropped})
	r.Add(Event{At: 3, Kind: LinkUp})
	if got := r.OfKind(PacketDropped); len(got) != 1 || got[0].At != 2 {
		t.Errorf("OfKind = %v", got)
	}
	d := r.Dump()
	if !strings.Contains(d, "link-down") || !strings.Contains(d, "link-up") {
		t.Errorf("Dump missing kinds:\n%s", d)
	}
	if strings.Count(d, "\n") != 3 {
		t.Error("Dump should have one line per event")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		PacketDropped: "drop-buffer", PacketNoRoute: "drop-noroute", PacketLooped: "drop-loop", PacketOutage: "drop-outage",
		LinkDown: "link-down", LinkUp: "link-up", Measure: "meas", UpdateOriginate: "originate", Reroute: "reroute",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

// Sort orders by time, then node, and keeps each node's events of an
// instant in the order they were recorded.
func TestSortKeepsEachNodesOrder(t *testing.T) {
	evs := []Event{
		{At: 2, Node: 1, Kind: Measure}, {At: 1, Node: 3, Kind: LinkDown}, {At: 2, Node: 0, Kind: PacketDropped},
		{At: 2, Node: 1, Kind: UpdateOriginate}, {At: 1, Node: 3, Kind: PacketOutage}, {At: 2, Node: 1, Kind: Reroute},
	}
	Sort(evs)
	var got []string
	for _, e := range evs {
		got = append(got, e.String())
	}
	want := []string{
		"0.000001s node=3 link-down link=0", "0.000001s node=3 drop-outage link=0 pkt=0x0000000000000000",
		"0.000002s node=0 drop-buffer link=0 pkt=0x0000000000000000", "0.000002s node=1 meas link=0 n=0 avg=0.000000000 cost=0",
		"0.000002s node=1 originate link=0 seq=0 links=0", "0.000002s node=1 reroute link=0 origin=0 seq=0 changed=0",
	}
	if !slices.Equal(got, want) {
		t.Errorf("sorted:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// A ring's memory follows the events it keeps: any positive capacity is
// valid, math.MaxInt included, and a ring grown to its capacity holds
// exactly that many events and wraps over them in order.
func TestRingGrowsToItsCapacity(t *testing.T) {
	r := NewRing(math.MaxInt)
	for i := range 3 {
		r.Add(Event{At: sim.Time(i), Kind: LinkUp})
	}
	if r.Len() != 3 || cap(r.events) > 64 {
		t.Errorf("a MaxInt ring holding 3 events: Len %d, room for %d", r.Len(), cap(r.events))
	}
	r = NewRing(200)
	for i := range 1000 {
		r.Add(Event{At: sim.Time(i), Kind: LinkUp})
	}
	evs := r.Events()
	if len(evs) != 200 || cap(r.events) != 200 || evs[0].At != 800 || evs[199].At != 999 || r.Overwritten() != 800 {
		t.Errorf("a ring of 200 after 1000 events: %d kept (room for %d), %v..%v, %d overwritten",
			len(evs), cap(r.events), evs[0].At, evs[len(evs)-1].At, r.Overwritten())
	}
}

func TestNewRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) should panic")
		}
	}()
	NewRing(0)
}

// Property: after any number of adds, Events() is chronological (we add
// with nondecreasing timestamps) and Len() <= capacity.
func TestRingChronologyProperty(t *testing.T) {
	f := func(nRaw uint16, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%64
		n := int(nRaw) % 500
		r := NewRing(capacity)
		for i := 0; i < n; i++ {
			r.Add(Event{At: sim.Time(i), Kind: PacketDropped})
		}
		if r.Len() > capacity {
			return false
		}
		evs := r.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].At <= evs[i-1].At {
				return false
			}
		}
		return int64(n) == r.Count(PacketDropped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
