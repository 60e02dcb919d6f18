package whart

import (
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// Protocol is the WirelessHART stack's registered name.
const Protocol = "whart"

// Codec is the WirelessHART stack's registration: built for the flow set
// the arguments name, and no snapshot section — the centrally computed
// stack is stateless, so MAC state is all a snapshot of it holds.
var Codec = stack.Codec{Protocol: Protocol, Build: build}

func init() { stack.Register(Codec) }

// Network bundles the per-node MAC and static WirelessHART stacks running
// over one simulated network, executing one centrally computed schedule.
type Network struct {
	*stack.Network[*Stack]
	Routes *Routes
}

// build dimensions the Network Manager's schedule for exactly the flows
// the run drives. The manager computes the TDMA schedule up front, so the
// flow set is part of the build (and its ConfigHash), unlike for the
// autonomous stacks.
func build(nw *sim.Network, a stack.BuildArgs, macCfg mac.Config) (stack.Bundle, error) {
	fl := make([]Flow, len(a.Flows))
	for i, f := range a.Flows {
		fl[i] = Flow{ID: f.ID, Source: f.Source, PeriodSlots: sim.SlotsFor(f.Period)}
	}
	return Build(nw, fl, macCfg)
}

// Build computes graph routes and a TDMA superframe for the given flows
// and attaches a static stack to every node. This is the executable form
// of the WirelessHART baseline: the network runs exactly what the manager
// computed, with no adaptation.
func Build(nw *sim.Network, fl []Flow, macCfg mac.Config) (*Network, error) {
	topo := nw.Topology()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		return nil, err
	}
	sf, err := ComputeSchedule(topo, routes, fl)
	if err != nil {
		return nil, err
	}
	net, err := stack.Build(nw, Protocol, stack.HashConfig(macCfg, fl), macCfg,
		func(id topology.NodeID, isAP bool) (*Stack, error) {
			return NewStack(id, isAP, routes, sf)
		})
	if err != nil {
		return nil, err
	}
	return &Network{Network: net, Routes: routes}, nil
}
