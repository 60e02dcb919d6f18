package controller

import (
	"fmt"
	"time"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// AdaptiveConfig holds the distributed cell allocator's parameters. The
// slotframe lengths default to the paper's evaluation values (557/47/151),
// shared with DiGS and Orchestra.
type AdaptiveConfig struct {
	EBFrameLen     int64
	SharedFrameLen int64
	DataFrameLen   int64

	// Trickle gates DIO transmissions (slot units).
	Trickle trickle.Config

	NeighborTimeout time.Duration
	// MaintainEvery is the adaptation tick: queue depth and loss are
	// sampled and the cell budget adjusted once per tick.
	MaintainEvery time.Duration

	// RankGranularity is RPL's MinHopRankIncrease.
	RankGranularity int

	// MinCells / MaxCells bound the per-node transmit-cell budget in the
	// data slotframe.
	MinCells int
	MaxCells int
	// GrowQueue is the queue depth at an adaptation tick that triggers
	// allocating one more transmit cell.
	GrowQueue int
	// GrowFails is the number of failed data transmissions within one
	// tick that triggers allocating one more transmit cell.
	GrowFails int
	// ShrinkIdle is the number of consecutive fully idle ticks (empty
	// queue, no transmissions) after which one cell is shed.
	ShrinkIdle int
}

// DefaultAdaptiveConfig returns the evaluation configuration.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		EBFrameLen:      557,
		SharedFrameLen:  47,
		DataFrameLen:    151,
		Trickle:         trickle.Config{IminSlots: 100, Doublings: 7, K: 6},
		NeighborTimeout: 5 * time.Minute,
		MaintainEvery:   5 * time.Second,
		RankGranularity: 4,
		MinCells:        1,
		MaxCells:        4,
		GrowQueue:       4,
		GrowFails:       2,
		ShrinkIdle:      3,
	}
}

// node returns the part of the configuration the RPL control plane takes.
func (c AdaptiveConfig) node() rpl.Config {
	return rpl.Config{
		EBFrameLen:      c.EBFrameLen,
		SharedFrameLen:  c.SharedFrameLen,
		UnicastFrameLen: c.DataFrameLen,
		Trickle:         c.Trickle,
		NeighborTimeout: c.NeighborTimeout,
		MaintainEvery:   c.MaintainEvery,
		RankGranularity: c.RankGranularity,
	}
}

// Validate checks the configuration.
func (c AdaptiveConfig) Validate() error {
	if err := c.node().Validate(); err != nil {
		return fmt.Errorf("adaptive config: %w", err)
	}
	if c.MinCells < 1 || c.MaxCells < c.MinCells {
		return fmt.Errorf("adaptive config: cell bounds %d..%d", c.MinCells, c.MaxCells)
	}
	if c.MaxCells > 255 {
		return fmt.Errorf("adaptive config: %d cells do not fit the DIO's one-byte cell count", c.MaxCells)
	}
	// The j-th cell sits at stride 53 from the (j-1)-th; all MaxCells
	// slots of one node must be distinct modulo the frame length (they
	// are whenever 53 and the frame length are coprime, as with the
	// default 151).
	seen := make(map[int64]bool, c.MaxCells)
	for j := 0; j < c.MaxCells; j++ {
		slot := (int64(j) * 53) % c.DataFrameLen
		if seen[slot] {
			return fmt.Errorf("adaptive config: %d cells collide in a %d-slot frame",
				c.MaxCells, c.DataFrameLen)
		}
		seen[slot] = true
	}
	return nil
}

// adaptiveCellSlot returns the j-th transmit cell of a node in the data
// slotframe. The stride keeps one node's cells distinct for prime frame
// lengths; cross-node collisions land on different channel lanes.
func adaptiveCellSlot(id topology.NodeID, j int, frameLen int64) int64 {
	return (int64(id)*37 + int64(j)*53) % frameLen
}

// AdaptiveStack is one node's adaptive-allocator instance: the RPL control
// plane (rpl.Node, like Orchestra) under a sender-based unicast slotframe
// whose per-node cell count tracks observed load. It implements
// mac.Protocol.
type AdaptiveStack struct {
	*rpl.Node
	cfg AdaptiveConfig

	// queueLen reads the owning MAC node's data queue depth; installed by
	// BuildAdaptive after the node exists. Reading our own node's queue
	// from our own Assignment keeps the no-cross-node-state rule intact.
	queueLen func() int

	// txCells is the current transmit-cell budget.
	txCells int
	// idleTicks counts consecutive adaptation ticks with nothing to send.
	idleTicks int
	// failsSinceTick / sentSinceTick are the tick-local loss and activity
	// counters feeding the allocator.
	failsSinceTick int
	sentSinceTick  int

	// neighborCells caches the advertised cell count of each neighbor
	// (from extended DIOs); the node's listen cells are derived from it at
	// each maintenance tick.
	neighborCells link.Table[int]
}

var _ mac.Protocol = (*AdaptiveStack)(nil)

// NewAdaptiveStack builds an adaptive stack for one node, its generator
// seeded with seed.
func NewAdaptiveStack(id topology.NodeID, isRoot bool, cfg AdaptiveConfig, seed int64) (*AdaptiveStack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, err := rpl.NewNode(id, isRoot, cfg.node(), seed)
	if err != nil {
		return nil, fmt.Errorf("adaptive stack %d: %w", id, err)
	}
	s := &AdaptiveStack{Node: n, cfg: cfg}
	s.setTxCells(cfg.MinCells)
	return s, nil
}

// setTxCells sets the transmit-cell budget and hands the node the budget's
// cells: sender-based, the budget is the node's own to grow.
func (s *AdaptiveStack) setTxCells(k int) {
	s.txCells = k
	var buf [8]int64
	cells := buf[:0]
	for j := 0; j < k; j++ {
		cells = append(cells, adaptiveCellSlot(s.ID(), j, s.cfg.DataFrameLen))
	}
	s.SetTxCells(cells...)
}

// Reset implements mac.Resetter: back to the just-constructed state. The
// installed route hook, the queue-length hook and the configuration
// survive, like the other stacks.
func (s *AdaptiveStack) Reset() {
	s.Node.Reset()
	s.setTxCells(s.cfg.MinCells)
	s.idleTicks = 0
	s.failsSinceTick = 0
	s.sentSinceTick = 0
	s.neighborCells = link.Table[int]{}
}

// refreshChildCells mirrors each potential child's advertised cell count
// as listen cells, children in ascending ID: a cell two of them claim goes
// to the higher ID.
func (s *AdaptiveStack) refreshChildCells() {
	for _, c := range s.ResetChildCells() {
		n, _ := s.neighborCells.Get(c)
		k := min(max(n, s.cfg.MinCells), s.cfg.MaxCells)
		for j := 0; j < k; j++ {
			s.Listen(adaptiveCellSlot(c, j, s.cfg.DataFrameLen), c)
		}
	}
}

// adapt is the allocator: grow under queue pressure or loss, shed after
// sustained idleness. A change re-advertises promptly via a Trickle reset
// so the parent's listen cells track the new budget.
func (s *AdaptiveStack) adapt(asn sim.ASN) {
	q := 0
	if s.queueLen != nil {
		q = s.queueLen()
	}
	k := s.txCells
	switch {
	case q >= s.cfg.GrowQueue || s.failsSinceTick >= s.cfg.GrowFails:
		if k < s.cfg.MaxCells {
			k++
		}
		s.idleTicks = 0
	case q == 0 && s.sentSinceTick == 0:
		s.idleTicks++
		if s.idleTicks >= s.cfg.ShrinkIdle && k > s.cfg.MinCells {
			k--
			s.idleTicks = 0
		}
	default:
		s.idleTicks = 0
	}
	s.failsSinceTick = 0
	s.sentSinceTick = 0
	if k != s.txCells {
		s.setTxCells(k)
		s.Readvertise(asn)
	}
}

// Assignment implements mac.Protocol: at a maintenance tick the allocator
// runs between the router's upkeep and the rebuild of the listen cells.
func (s *AdaptiveStack) Assignment(asn sim.ASN) mac.Assignment {
	if s.Maintain(asn) {
		s.adapt(asn)
		s.refreshChildCells()
	}
	return s.Node.Assignment(asn)
}

// EBPayload implements mac.Protocol: beacons carry the RPL join metric
// extended with the sender's cell count, so parents can mirror the
// sender's cells as listen cells.
func (s *AdaptiveStack) EBPayload() []byte { return s.DIOPayload(byte(s.txCells)) }

// OnFrame implements mac.Protocol: a DIO's option byte is the sender's
// cell count. A zero from the wire is floored to 1: every synced node owns
// at least its base cell.
func (s *AdaptiveStack) OnFrame(asn sim.ASN, f *sim.Frame, rssi float64) {
	if option := s.Node.OnFrame(asn, f, rssi, 1); option != nil {
		s.neighborCells.Put(f.Src, max(int(option[0]), 1))
	}
}

// SharedFrame implements mac.Protocol.
func (s *AdaptiveStack) SharedFrame(asn sim.ASN) (*sim.Frame, bool) {
	return s.Node.SharedFrame(asn, byte(s.txCells))
}

// OnTxResult implements mac.Protocol: data outcomes feed both the RPL
// link estimator and the allocator's tick-local loss counter.
func (s *AdaptiveStack) OnTxResult(asn sim.ASN, f *sim.Frame, to topology.NodeID, acked bool) {
	if f.Kind == sim.KindData {
		s.sentSinceTick++
		if !acked {
			s.failsSinceTick++
		}
	}
	s.Node.OnTxResult(asn, f, to, acked)
}
