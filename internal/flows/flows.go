// Package flows generates the periodic uplink workloads of the paper's
// evaluation: sets of data flows with distinct sources, each producing one
// packet per period towards the access points.
package flows

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Flow is one periodic uplink data flow.
type Flow struct {
	ID     uint16
	Source topology.NodeID
	Period time.Duration
}

// RandomSet draws a flow set: n distinct random field-device sources, all
// with the same period (the paper's flow sets differ in their sources).
// Nodes in exclude (e.g. motes repurposed as jammers) are never drawn.
func RandomSet(topo *topology.Topology, n int, period time.Duration, rng *rand.Rand,
	exclude ...topology.NodeID) ([]Flow, error) {
	excluded := make(map[topology.NodeID]bool, len(exclude))
	for _, id := range exclude {
		excluded[id] = true
	}
	var pool []topology.NodeID
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		if id := topology.NodeID(i); !excluded[id] {
			pool = append(pool, id)
		}
	}
	if n > len(pool) {
		return nil, fmt.Errorf("flows: want %d sources, topology has %d eligible field devices",
			n, len(pool))
	}
	perm := rng.Perm(len(pool))
	out := make([]Flow, n)
	for i := 0; i < n; i++ {
		out[i] = Flow{
			ID:     uint16(i + 1),
			Source: pool[perm[i]],
			Period: period,
		}
	}
	return out, nil
}

// FixedSet builds a flow set from explicit sources (e.g. the testbed's
// suggested sources from Figure 8).
func FixedSet(sources []topology.NodeID, period time.Duration) []Flow {
	out := make([]Flow, len(sources))
	for i, src := range sources {
		out[i] = Flow{ID: uint16(i + 1), Source: src, Period: period}
	}
	return out
}

// Schedule registers packet generation events on the network: each flow
// emits `packets` packets at its period, staggered so flows do not all
// generate in the same slot. The inject callback performs the actual
// enqueue and any bookkeeping (scenario's Drive hands each packet to
// Scenario.Inject, which wakes a napping source first); seq numbers count
// from 0.
func Schedule(nw *sim.Network, set []Flow, packets int,
	inject func(f Flow, seq uint16, asn sim.ASN)) {
	base := nw.ASN()
	for fi, f := range set {
		f := f
		periodSlots := sim.SlotsFor(f.Period)
		stagger := sim.ASN(fi) * (periodSlots / sim.ASN(maxInt(len(set), 1)))
		for p := 0; p < packets; p++ {
			seq := uint16(p)
			at := base + stagger + sim.ASN(p)*periodSlots
			nw.At(at, func() { inject(f, seq, at) })
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
