package network

import (
	"repro/internal/node"
	"repro/internal/topology"
)

// What agree_test.go reads of the engine: it is package network_test, for it
// imports internal/check, which imports this package.
var Sending = sending

// Trunk is link l's trunk.
func (n *Network) Trunk(l topology.LinkID) *node.Trunk { return &n.links[l].Trunk }
