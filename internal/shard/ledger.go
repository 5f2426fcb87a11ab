package shard

// Per-shard packet custody ledger. Each shard tracks its own packets with
// two extra classes a single-kernel simulation does not need: Exported
// (handed to another shard's wire) and Imported (received over one). The
// per-shard identity
//
//	Generated + Imported == Delivered + drops + Exported + InFlight
//
// holds at every barrier, and composing all shards (node.Conservation.Plus)
// cancels the export/import terms so the global ledger obeys the classic
// single-kernel conservation identity.
//
// Adaptive routing adds a second, independent custody identity over the
// control plane. Every enqueued copy of a routing update is one control
// packet; copies are never buffer-dropped (they head-insert) and never loop
// (dedup kills them after one hop), so their only exits are consumption at
// a node, outage flushes, and the wire:
//
//	CtrlGenerated + CtrlImported == CtrlConsumed + CtrlOutageDrops + CtrlExported + CtrlInFlight

import (
	"fmt"

	"repro/internal/node"
)

// Ledger is one shard's packet custody record.
type Ledger struct {
	Generated    int64
	Imported     int64
	Delivered    int64
	BufferDrops  int64
	NoRouteDrops int64
	LoopDrops    int64
	OutageDrops  int64
	Exported     int64
	InFlight     int64 // snapshot: queued, transmitting, or awaiting arrival

	// Control plane (routing-update copies), all zero without Config.Adaptive.
	CtrlGenerated   int64 // copies enqueued (origination + flood forwarding)
	CtrlImported    int64
	CtrlConsumed    int64 // copies that reached a node and were processed or deduped
	CtrlOutageDrops int64
	CtrlExported    int64
	CtrlInFlight    int64
}

// Balanced reports whether the shard's custody books balance — the user
// identity and the control identity independently.
func (l Ledger) Balanced() bool {
	return l.Generated+l.Imported ==
		l.Delivered+l.BufferDrops+l.NoRouteDrops+l.LoopDrops+l.OutageDrops+l.Exported+l.InFlight &&
		l.CtrlGenerated+l.CtrlImported ==
			l.CtrlConsumed+l.CtrlOutageDrops+l.CtrlExported+l.CtrlInFlight
}

// Err returns nil when balanced, or an error naming the imbalance.
func (l Ledger) Err() error {
	if l.Balanced() {
		return nil
	}
	in := l.Generated + l.Imported
	out := l.Delivered + l.BufferDrops + l.NoRouteDrops + l.LoopDrops + l.OutageDrops + l.Exported + l.InFlight
	if in != out {
		return fmt.Errorf("shard ledger violated: in %d != out %d (missing %d): %+v", in, out, in-out, l)
	}
	cin := l.CtrlGenerated + l.CtrlImported
	cout := l.CtrlConsumed + l.CtrlOutageDrops + l.CtrlExported + l.CtrlInFlight
	return fmt.Errorf("shard control ledger violated: in %d != out %d (missing %d): %+v", cin, cout, cin-cout, l)
}

// Conservation converts the shard ledger into the single-kernel ledger
// shape: exported packets count as in flight (they are on a wire or in a
// neighbour shard's future), imported packets are deducted from that same
// in-flight term since the neighbour already exported them. Control copies
// are deliberately excluded — node.Conservation models offered user
// traffic, and the control plane has its own identity above.
func (l Ledger) Conservation() node.Conservation {
	return node.Conservation{
		Offered:      l.Generated,
		Delivered:    l.Delivered,
		BufferDrops:  l.BufferDrops,
		LoopDrops:    l.LoopDrops,
		NoRouteDrops: l.NoRouteDrops,
		OutageDrops:  l.OutageDrops,
		InFlight:     l.InFlight + l.Exported - l.Imported,
	}
}

// Compose folds per-shard ledgers into one global conservation ledger.
func Compose(ledgers []Ledger) node.Conservation {
	var c node.Conservation
	for _, l := range ledgers {
		c = c.Plus(l.Conservation())
	}
	return c
}
