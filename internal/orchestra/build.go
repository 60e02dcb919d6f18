package orchestra

import (
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// Network bundles the per-node MAC and Orchestra instances running over
// one simulated network.
type Network = stack.Network[*Stack]

// Build attaches a full Orchestra stack to every node of the network's
// topology (access points act as RPL roots).
func Build(nw *sim.Network, cfg Config, macCfg mac.Config, seed int64) (*Network, error) {
	return stack.Build(nw, Codec.Protocol, stack.HashConfig(cfg, macCfg), macCfg,
		func(id topology.NodeID, isRoot bool) (*Stack, error) {
			return NewStack(id, isRoot, cfg, seed*6151+int64(id))
		})
}
