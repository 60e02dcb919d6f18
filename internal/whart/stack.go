package whart

import (
	"fmt"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// This file makes the centralized baseline executable: the Network
// Manager's routes and TDMA superframe are loaded into per-node stacks
// that run on the same simulator as DiGS and Orchestra. The stack is
// deliberately static — that is the point of the comparison: when the
// network changes (a router dies, a jammer appears), a WirelessHART
// device keeps following the stale schedule until the manager pushes a
// new one, which Figure 3 shows takes minutes.

// Channel offsets: EBs use lane 0; data cells use the centrally assigned
// offset shifted above it.
const (
	ebChannelOffset     = 0
	dataChannelBase     = 1
	stackSyncFrameLen   = 557
	maxDataChannelLanes = 14
)

// cell is one scheduled action for a node.
type cell struct {
	role    mac.SlotRole
	offset  uint8
	peer    topology.NodeID
	attempt int
	backup  bool
}

// Stack executes a node's slice of a centrally computed superframe. It
// implements mac.Protocol.
type Stack struct {
	id     topology.NodeID
	isAP   bool
	routes *Routes

	frameLen int64
	// cells is the node's slice of the superframe, sorted by slot offset;
	// Assignment, NextHop and NextActive all look it up. listen is the same
	// without the transmit cells: the next cell a node with nothing queued
	// acts in. The hints are the two tables' lookup hints.
	cells, listen         mac.Cells[cell]
	cellsHint, listenHint int
}

var _ mac.Protocol = (*Stack)(nil)

// NewStack builds the static per-node schedule from the manager's
// superframe.
func NewStack(id topology.NodeID, isAP bool, routes *Routes, sf *Superframe) (*Stack, error) {
	if sf.Length <= 0 {
		return nil, fmt.Errorf("whart stack %d: empty superframe", id)
	}
	s := &Stack{
		id:       id,
		isAP:     isAP,
		routes:   routes,
		frameLen: sf.Length,
	}
	for _, e := range sf.Entries {
		switch id {
		case e.Tx:
			s.cells = s.cells.Put(e.Slot, cell{
				role:    mac.RoleTxData,
				offset:  dataChannelBase + e.ChannelOffset%maxDataChannelLanes,
				peer:    e.Rx,
				attempt: 1,
				backup:  e.Backup,
			})
		case e.Rx:
			s.cells = s.cells.Put(e.Slot, cell{
				role:   mac.RoleRxData,
				offset: dataChannelBase + e.ChannelOffset%maxDataChannelLanes,
				peer:   e.Tx,
			})
		}
	}
	for _, c := range s.cells {
		if c.Val.role != mac.RoleTxData {
			s.listen = append(s.listen, c)
		}
	}
	return s, nil
}

// Assignment implements mac.Protocol: the sync slotframe (EBs, same rule
// as the distributed stacks) overlays the data superframe.
func (s *Stack) Assignment(asn sim.ASN) mac.Assignment {
	syncOffset := asn % stackSyncFrameLen
	if syncOffset == int64(s.id-1)%stackSyncFrameLen {
		return mac.Assignment{Role: mac.RoleTxEB, ChannelOffset: ebChannelOffset}
	}
	if !s.isAP {
		if best := s.routes.Best[s.id]; best != 0 &&
			syncOffset == int64(best-1)%stackSyncFrameLen {
			return mac.Assignment{Role: mac.RoleRxEB, ChannelOffset: ebChannelOffset}
		}
	}
	if c, ok := s.cells.At(asn%s.frameLen, &s.cellsHint); ok {
		return mac.Assignment{Role: c.role, ChannelOffset: c.offset, Attempt: c.attempt}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

// NextActive implements mac.Protocol. The schedule is static and the stack
// has no timers: the next active slot is the nearest of the node's own
// beacon slot, its primary parent's, and its superframe cells — its listen
// cells only, while nothing is queued.
func (s *Stack) NextActive(after sim.ASN, queued bool) sim.ASN {
	w := mac.NextOffset(after, stackSyncFrameLen, int64(s.id-1)%stackSyncFrameLen)
	if best := s.routes.Best[s.id]; !s.isAP && best != 0 {
		w = min(w, mac.NextOffset(after, stackSyncFrameLen, int64(best-1)%stackSyncFrameLen))
	}
	cells, hint := s.cells, &s.cellsHint
	if !queued {
		cells, hint = s.listen, &s.listenHint
	}
	if v, ok := cells.Next(after, s.frameLen, hint); ok {
		w = min(w, v)
	}
	return w
}

// OnSynced implements mac.Protocol (the static stack needs no setup).
func (s *Stack) OnSynced(sim.ASN) {}

// EBPayload implements mac.Protocol: the centralized stack's beacons carry
// no routing metadata — the manager owns the topology.
func (s *Stack) EBPayload() []byte { return nil }

// OnFrame implements mac.Protocol (no distributed routing state to feed).
func (s *Stack) OnFrame(sim.ASN, *sim.Frame, float64) {}

// SharedFrame implements mac.Protocol: the centralized schedule has no
// shared slots (management traffic is modelled analytically; see
// UpdateCycle).
func (s *Stack) SharedFrame(sim.ASN) (*sim.Frame, bool) { return nil, false }

// NextHop implements mac.Protocol: the cell's peer is the centrally
// assigned receiver for this slot (primary-route cells target the primary
// parent, backup cells the backup parent).
func (s *Stack) NextHop(asn sim.ASN, _ int) (topology.NodeID, bool) {
	c, ok := s.cells.At(asn%s.frameLen, &s.cellsHint)
	if !ok || c.role != mac.RoleTxData || c.peer == 0 {
		return 0, false
	}
	return c.peer, true
}

// OnTxResult implements mac.Protocol: the static stack does not adapt.
func (s *Stack) OnTxResult(sim.ASN, *sim.Frame, topology.NodeID, bool) {}

// Joined implements stack.Node: the manager's graph is installed at build
// time, so a synchronised node is a joined node.
func (s *Stack) Joined() bool { return true }

// SetRouteHook implements stack.Node: the static schedule never reroutes,
// so there is no route-change source to wire.
func (s *Stack) SetRouteHook(stack.RouteHook) {}

// SetJoinHook implements stack.Node: Joined never changes.
func (s *Stack) SetJoinHook(func()) {}

// Probe implements stack.Node. The routes are the manager's static graph:
// parents never change at runtime, so the loop check watches the computed
// graph and the liveness checks watch the MAC. The neighbours are the
// primary and backup parents the manager assigned.
func (s *Stack) Probe() (parent topology.NodeID, neighbors int) {
	parent = s.routes.Best[s.id]
	if parent != 0 {
		neighbors++
	}
	if s.routes.Second[s.id] != 0 {
		neighbors++
	}
	return parent, neighbors
}

// CaptureState implements stack.Node; the stack is registered without a
// snapshot section, so it is never asked.
func (s *Stack) CaptureState() (stack.State, error) { return nil, nil }

// RestoreState implements stack.Node (see CaptureState).
func (s *Stack) RestoreState(stack.State) error { return nil }
