package shard

// Per-shard packet custody ledger. Each shard books its own nodes' user
// packets in a node.Conservation (User), with two extra classes a single-kernel
// simulation does not need: Exported (handed to another shard's wire) and
// Imported (received over one). The per-shard identity
//
//	Offered + Imported == Delivered + drops + Exported + InFlight
//
// holds at every barrier; it is the single-kernel identity of Global, whose
// in-flight term counts the wires, and in the sum of all shards (Compose)
// the export/import terms cancel.
//
// Adaptive routing adds a second, independent custody identity over the
// control plane. Every enqueued copy of a routing update, and under BF1969
// every enqueued vector, is one control packet; control packets are never
// buffer-dropped (they head-insert) and never loop (a node consumes each one
// it receives), so their only exits are consumption at a node, outage
// flushes, and the wire:
//
//	CtrlGenerated + CtrlImported == CtrlConsumed + CtrlOutageDrops + CtrlExported + CtrlInFlight

import (
	"fmt"

	"repro/internal/node"
)

// Ledger is one shard's packet custody record. User books the user packets
// the shard's nodes offered, delivered and dropped, its InFlight those in
// the shard's custody: queued, transmitting, or awaiting arrival.
type Ledger struct {
	User               node.Conservation
	Imported, Exported int64

	// Control plane (routing-update copies, or BF1969's vectors), all zero
	// without Config.Adaptive.
	CtrlGenerated   int64 // copies enqueued (origination + flood forwarding)
	CtrlImported    int64
	CtrlConsumed    int64 // copies that reached a node and were processed or deduped
	CtrlOutageDrops int64
	CtrlExported    int64
	CtrlInFlight    int64
}

// Err returns nil when the shard's custody books balance — the user
// identity and the control identity independently — or an error naming the
// imbalance.
func (l Ledger) Err() error {
	if err := l.Global().Err(); err != nil {
		return fmt.Errorf("shard ledger: %w (imported %d, exported %d)", err, l.Imported, l.Exported)
	}
	cin := l.CtrlGenerated + l.CtrlImported
	if cout := l.CtrlConsumed + l.CtrlOutageDrops + l.CtrlExported + l.CtrlInFlight; cin != cout {
		return fmt.Errorf("shard control ledger violated: in %d != out %d (missing %d): %+v", cin, cout, cin-cout, l)
	}
	return nil
}

// Global is the shard ledger in the single-kernel shape: exported packets
// count as in flight (they are on a wire or in a neighbour shard's future),
// imported packets are deducted from that same term since the neighbour
// already exported them. Control copies are deliberately excluded —
// node.Conservation models offered user traffic, and the control plane has
// its own identity above.
func (l Ledger) Global() node.Conservation {
	c := l.User
	c.InFlight += l.Exported - l.Imported
	return c
}

// Compose adds up per-shard ledgers. The wire terms cancel in the sum's
// Global, the one conservation ledger of the network.
func Compose(ledgers []Ledger) Ledger {
	var t Ledger
	for _, l := range ledgers {
		t.User = t.User.Plus(l.User)
		t.Imported += l.Imported
		t.Exported += l.Exported
		t.CtrlGenerated += l.CtrlGenerated
		t.CtrlImported += l.CtrlImported
		t.CtrlConsumed += l.CtrlConsumed
		t.CtrlOutageDrops += l.CtrlOutageDrops
		t.CtrlExported += l.CtrlExported
		t.CtrlInFlight += l.CtrlInFlight
	}
	return t
}
