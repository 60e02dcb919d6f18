package core

import (
	"fmt"
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// Protocol is the DiGS stack's registered name.
const Protocol = "digs"

// Codec is the DiGS stack's registration: built with ScaledConfig (the
// paper's DefaultConfig within its envelope; only generated massive-scale
// deployments get re-dimensioned frames), one StackState per node in the
// "digs" snapshot section.
var Codec = stack.Codec{Protocol: Protocol, Section: "digs", New: func() stack.State { return &StackState{} },
	Build: func(nw *sim.Network, a stack.BuildArgs, macCfg mac.Config) (stack.Bundle, error) {
		topo := nw.Topology()
		return Build(nw, ScaledConfig(topo.NumAPs, topo.N()), macCfg, a.Seed)
	}}

func init() { stack.Register(Codec) }

// Network bundles the per-node MAC and DiGS instances running over one
// simulated network.
type Network = stack.Network[*Stack]

// Build attaches a full DiGS stack to every node of the network's
// topology. Sink callbacks can then be installed on the AP nodes.
func Build(nw *sim.Network, cfg Config, macCfg mac.Config, seed int64) (*Network, error) {
	if topo := nw.Topology(); cfg.NumAPs != topo.NumAPs {
		return nil, fmt.Errorf("digs build: config NumAPs %d != topology NumAPs %d",
			cfg.NumAPs, topo.NumAPs)
	}
	return stack.Build(nw, Protocol, stack.HashConfig(cfg, macCfg), macCfg,
		func(id topology.NodeID, isAP bool) (*Stack, error) {
			// A counting source (same value stream as rand.NewSource) keeps
			// the stack's RNG position checkpointable for snapshots.
			src := detrand.New(seed*7919 + int64(id))
			s, err := NewStack(id, isAP, cfg, rand.New(src))
			if err != nil {
				return nil, err
			}
			s.rngSrc = src
			return s, nil
		})
}
