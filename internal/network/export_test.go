package network

import (
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/topology"
)

// What agree_test.go reads of the engine: it is package network_test, for it
// imports internal/check, which imports this package.
var Sending = sending

// track has cfg's network record link l's samples and returns its series.
func track(cfg *Config, l topology.LinkID) node.LinkSeries {
	s := node.LinkSeries{Link: l, Util: stats.NewSeries("utilization"), Cost: stats.NewSeries("cost")}
	cfg.Track = append(cfg.Track, s)
	return s
}

// Trunk is link l's trunk.
func (n *Network) Trunk(l topology.LinkID) *node.Trunk { return &n.links[l].Trunk }
