package controller

import (
	"fmt"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// SDNProtocol and AdaptiveProtocol are the registered names of the two
// controller-layer stacks.
const (
	SDNProtocol      = "sdn"
	AdaptiveProtocol = "adaptive"
)

// SDNCodec is the sdn stack's registration: built with DefaultSDNConfig,
// one SDNStackState per node in the "sdn" snapshot section.
var SDNCodec = stack.Codec{Protocol: SDNProtocol, Section: "sdn", New: func() stack.State { return &SDNStackState{} },
	Build: func(nw *sim.Network, _ stack.BuildArgs, macCfg mac.Config) (stack.Bundle, error) {
		return BuildSDN(nw, DefaultSDNConfig(), macCfg)
	}}

// AdaptiveCodec is the adaptive stack's registration: built with
// DefaultAdaptiveConfig, one AdaptiveStackState per node in the "adpt"
// section.
var AdaptiveCodec = stack.Codec{Protocol: AdaptiveProtocol, Section: "adpt", New: func() stack.State { return &AdaptiveStackState{} },
	Build: func(nw *sim.Network, a stack.BuildArgs, macCfg mac.Config) (stack.Bundle, error) {
		return BuildAdaptive(nw, DefaultAdaptiveConfig(), macCfg, a.Seed)
	}}

func init() {
	stack.Register(SDNCodec)
	stack.Register(AdaptiveCodec)
}

// SDNNetwork bundles the per-node MAC and SDN stack instances running over
// one simulated network. Its JoinedCount only rises once the controller
// has collected reports and disseminated configurations — in-band
// convergence, not free.
type SDNNetwork = stack.Network[*SDNStack]

// BuildSDN attaches an SDN stack to every node of the network's topology.
// The lowest-ID access point runs the controller role; the others are
// plain switches that report links up and accept configurations down.
func BuildSDN(nw *sim.Network, cfg SDNConfig, macCfg mac.Config) (*SDNNetwork, error) {
	topo := nw.Topology()
	aps := topo.APs()
	if len(aps) == 0 {
		return nil, fmt.Errorf("sdn build: topology has no access points")
	}
	controllerID := aps[0]
	for _, ap := range aps {
		if ap < controllerID {
			controllerID = ap
		}
	}
	return stack.Build(nw, SDNProtocol, stack.HashConfig(cfg, macCfg), macCfg,
		func(id topology.NodeID, isAP bool) (*SDNStack, error) {
			return NewSDNStack(id, isAP, controllerID, topo.N(), aps, cfg)
		})
}

// AdaptiveNetwork bundles the per-node MAC and adaptive-allocator stacks
// running over one simulated network.
type AdaptiveNetwork = stack.Network[*AdaptiveStack]

// BuildAdaptive attaches an adaptive stack to every node of the network's
// topology (access points act as RPL roots).
func BuildAdaptive(nw *sim.Network, cfg AdaptiveConfig, macCfg mac.Config, seed int64) (*AdaptiveNetwork, error) {
	net, err := stack.Build(nw, AdaptiveProtocol, stack.HashConfig(cfg, macCfg), macCfg,
		func(id topology.NodeID, isRoot bool) (*AdaptiveStack, error) {
			// The multiplier differs from Orchestra's so the two RPL-based
			// stacks do not share random streams at equal seeds.
			return NewAdaptiveStack(id, isRoot, cfg, seed*7877+int64(id))
		})
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(net.Stacks); i++ {
		// The allocator samples its own node's queue depth at adaptation
		// ticks; reading our own queue from our own Assignment keeps the
		// no-cross-node-state rule intact.
		net.Stacks[i].queueLen = net.Nodes[i].QueueLen
	}
	return net, nil
}
