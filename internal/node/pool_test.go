package node

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// panicText runs fn and returns what it panicked with, "" if it returned.
func panicText(fn func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// releaseIf and dispose are the two shapes of release a per-function static
// check could not follow: one inside a branch, one inside a callee whose name
// says nothing about pools.
func releaseIf(pp *PacketPool, p *Packet, done bool) {
	if done {
		pp.Put(p)
	}
}

func dispose(pp *PacketPool, p *Packet) { pp.Put(p) }

// Every misuse of a released packet is caught where the pool lives, whatever
// the caller looks like: a second release panics at Put wherever the packet
// sits in the free list, a write panics at the Get that would have recycled
// it and shows every field, and a read or re-queue meets the poison, not the
// zeros of a fresh packet.
func TestPoolGuards(t *testing.T) {
	cases := []struct {
		name   string
		want   string // substring of the panic
		misuse func(pp *PacketPool)
	}{
		{"second release, head of the free list", "packet released twice", func(pp *PacketPool) {
			p := pp.Get()
			pp.Put(p)
			pp.Put(p)
		}},
		{"second release, middle of the free list", "packet released twice", func(pp *PacketPool) {
			a, b, c := pp.Get(), pp.Get(), pp.Get()
			pp.Put(a)
			pp.Put(b)
			pp.Put(c)
			pp.Put(b)
		}},
		// The tail's poolNext is nil and it is not the head: the free-list
		// test alone let this through, and the next three Gets handed out
		// a, b, a.
		{"second release, tail of the free list", "packet released twice", func(pp *PacketPool) {
			a, b := pp.Get(), pp.Get()
			pp.Put(a)
			pp.Put(b)
			pp.Put(a)
		}},
		{"second release after one inside an if body", "packet released twice", func(pp *PacketPool) {
			p := pp.Get()
			releaseIf(pp, p, true)
			pp.Put(p)
		}},
		{"second release after one inside a callee", "packet released twice", func(pp *PacketPool) {
			p := pp.Get()
			dispose(pp, p)
			pp.Put(p)
		}},
		{"write after release", "node: pooled packet written after release: {Seq:", func(pp *PacketPool) {
			p := pp.Get()
			pp.Put(p)
			p.Hops = 7
			pp.Get()
		}},
		{"write after a release inside a callee, deeper in the list", " Hops:-1 MinHops:-1 Update:<nil> Vector:<nil> Arrival:4 ", func(pp *PacketPool) {
			a, b := pp.Get(), pp.Get()
			dispose(pp, a)
			pp.Put(b)
			a.Arrival = 4
			pp.Get() // b: intact
			pp.Get() // a
		}},
		{"read after release", "FromSeconds(NaN)", func(pp *PacketPool) {
			p := pp.Get()
			p.SizeBits = 600
			releaseIf(pp, p, true)
			tr, _ := newTestTrunk()
			tr.Queue.Push(&Packet{SizeBits: p.SizeBits}) // a copy made from the stale read
			tr.Next()
		}},
		{"read of an endpoint after release", "index out of range", func(pp *PacketPool) {
			p := pp.Get()
			p.Dst = 2
			pp.Put(p)
			_ = make([]int, 4)[p.Dst]
		}},
		{"re-queue after release", "FromSeconds(NaN)", func(pp *PacketPool) {
			p := pp.Get()
			p.SizeBits = 600
			pp.Put(p)
			tr, _ := newTestTrunk()
			tr.Queue.Push(p)
			tr.Next()
		}},
	}
	for _, tc := range cases {
		var pp PacketPool
		if got := panicText(func() { tc.misuse(&pp) }); !strings.Contains(got, tc.want) {
			t.Errorf("%s: panic %q, want one containing %q", tc.name, got, tc.want)
		}
	}
}

// The legal shapes stay legal: a packet comes back from the pool zeroed
// however it was used, re-acquiring after a release is a new life, and a
// branch that did not release leaves the packet live.
func TestPoolRecyclesZeroed(t *testing.T) {
	if n := reflect.TypeOf(Packet{}).NumField(); n != 12 {
		t.Fatalf("Packet has %d fields: Put poisons and poisoned checks 12, one by one — teach both the new one", n)
	}
	var pp PacketPool
	p := pp.Get()
	*p = Packet{Seq: 9, Src: 1, Dst: 2, SizeBits: 600, Created: 5, Enqueued: 6, Hops: 3,
		MinHops: 2, Vector: &Vector{}, Arrival: 4}
	releaseIf(&pp, p, false)
	if p.Seq != 9 || p.SizeBits != 600 {
		t.Fatalf("an untaken release changed the packet: %+v", *p)
	}
	pp.Put(p)
	if q := pp.Get(); q != p || *q != (Packet{}) {
		t.Fatalf("Get returned %p %+v, want the released packet %p zeroed", q, *q, p)
	}
	p.Src, p.Dst = topology.NoNode, topology.NoNode // a live packet may hold any one poison value
	p.Hops, p.MinHops = -1, -1
	pp.Put(p)
	pp.Put(pp.Get())
}
