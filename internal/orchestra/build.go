package orchestra

import (
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// Protocol is the Orchestra stack's registered name.
const Protocol = "orchestra"

// Codec is the Orchestra stack's registration: built with DefaultConfig,
// one StackState per node in the "orch" snapshot section.
var Codec = stack.Codec{Protocol: Protocol, Section: "orch", New: func() stack.State { return &StackState{} },
	Build: func(nw *sim.Network, a stack.BuildArgs, macCfg mac.Config) (stack.Bundle, error) {
		return Build(nw, DefaultConfig(), macCfg, a.Seed)
	}}

func init() { stack.Register(Codec) }

// Network bundles the per-node MAC and Orchestra instances running over
// one simulated network.
type Network = stack.Network[*Stack]

// Build attaches a full Orchestra stack to every node of the network's
// topology (access points act as RPL roots).
func Build(nw *sim.Network, cfg Config, macCfg mac.Config, seed int64) (*Network, error) {
	return stack.Build(nw, Protocol, stack.HashConfig(cfg, macCfg), macCfg,
		func(id topology.NodeID, isRoot bool) (*Stack, error) {
			return NewStack(id, isRoot, cfg, seed*6151+int64(id))
		})
}
