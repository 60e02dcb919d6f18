// Package orchestra implements the autonomous-scheduling baseline the
// paper evaluates against (Duquennoy et al., SenSys'15): Orchestra over
// RPL. Nodes derive their TSCH schedule from local RPL state with three
// slotframes — EBs, a common shared slot for routing traffic, and a
// sender-based unicast slotframe where every node transmits in a slot
// hashed from its own ID and listens in the slots hashed from its
// potential children's IDs. Sender-based is what deployments use for
// collection traffic: it avoids funnelling a whole subtree into the sink's
// single cell. The control plane is rpl.Node; this package is the cell
// policy.
package orchestra

import (
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// Config holds Orchestra parameters: the static hash adds none to the RPL
// node's.
type Config = rpl.Config

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		EBFrameLen:      557,
		SharedFrameLen:  47,
		UnicastFrameLen: 151,
		Trickle:         trickle.Config{IminSlots: 100, Doublings: 7, K: 6},
		NeighborTimeout: 5 * time.Minute,
		MaintainEvery:   5 * time.Second,
		RankGranularity: 4,
	}
}

// TxSlot returns the unicast-slotframe slot a node transmits in
// (sender-based scheduling: a hash of the node identity).
func TxSlot(id topology.NodeID, frameLen int64) int64 {
	return (int64(id) * 37) % frameLen
}

// Stack is one node's Orchestra + RPL instance. It implements
// mac.Protocol: the node transmits in the unicast cell hashed from its own
// ID once it has a parent, and listens in the sender cells of every
// potential child (the RPL neighbours below it).
type Stack struct {
	*rpl.Node
	frameLen int64 // of the unicast slotframe
}

var _ mac.Protocol = (*Stack)(nil)

// NewStack builds an Orchestra stack for one node, its generator seeded
// with seed.
func NewStack(id topology.NodeID, isRoot bool, cfg Config, seed int64) (*Stack, error) {
	n, err := rpl.NewNode(id, isRoot, cfg, seed)
	if err != nil {
		return nil, err
	}
	n.SetTxCells(TxSlot(id, cfg.UnicastFrameLen))
	return &Stack{Node: n, frameLen: cfg.UnicastFrameLen}, nil
}

// Assignment implements mac.Protocol. At a maintenance tick the listen
// cells are rebuilt from the potential children in ascending ID: a cell
// two of them hash to goes to the higher ID.
func (s *Stack) Assignment(asn sim.ASN) mac.Assignment {
	if s.Maintain(asn) {
		for _, c := range s.ResetChildCells() {
			s.Listen(TxSlot(c, s.frameLen), c)
		}
	}
	return s.Node.Assignment(asn)
}

// EBPayload implements mac.Protocol: beacons carry the RPL join metric.
func (s *Stack) EBPayload() []byte { return s.DIOPayload() }

// OnFrame implements mac.Protocol. Nothing rides behind Orchestra's DIOs.
func (s *Stack) OnFrame(asn sim.ASN, f *sim.Frame, rssi float64) {
	s.Node.OnFrame(asn, f, rssi, 0)
}

// SharedFrame implements mac.Protocol.
func (s *Stack) SharedFrame(asn sim.ASN) (*sim.Frame, bool) { return s.Node.SharedFrame(asn) }
