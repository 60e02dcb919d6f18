package controller

import (
	"fmt"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// SDNHopsState is one gradient-table entry (hop distance to controller).
type SDNHopsState struct {
	Node  topology.NodeID
	Hops  uint8
	Heard int64
}

// SDNRSSState is one observed-link entry.
type SDNRSSState struct {
	Node  topology.NodeID
	RSS   float64
	Heard int64
}

// SDNCtrlState is one queued control frame with its retry bookkeeping.
type SDNCtrlState struct {
	Frame     mac.FrameState
	Tries     int
	NotBefore int64
}

// SDNReportState is one collected link-state report (controller only).
type SDNReportState struct {
	Node  topology.NodeID
	ASN   int64
	Neigh []SDNReportNeighbor
}

// SDNSentState is one dissemination-dedup entry (controller only).
type SDNSentState struct {
	Node     topology.NodeID
	Parent   topology.NodeID
	Children []topology.NodeID
}

// SDNStackState is the complete mutable state of one SDN stack. The
// child-cell table is not captured: applyConfig derives it from Children
// deterministically, so the restore path recomputes it.
type SDNStackState struct {
	Synced  bool
	Uplink  topology.NodeID
	OwnHops uint8

	// HasHops/HasRSS distinguish nil tables (never populated since
	// construction or reset) from empty populated ones; the slice is nil
	// in both cases.
	HasHops bool
	Hops    []SDNHopsState // sorted by node
	HasRSS  bool
	RSS     []SDNRSSState // sorted by node

	NextMaintain int64
	NextReport   int64

	CfgEpoch          uint16
	Parent            topology.NodeID
	Children          []topology.NodeID
	ConsecParentFails int

	CtrlQ []SDNCtrlState

	// Controller-only state (zero values on every other node).
	Reports       []SDNReportState // sorted by node
	Epoch         uint16
	EpochCount    int64
	NextRecompute int64
	LastSent      []SDNSentState // sorted by node
}

// CaptureState snapshots the stack.
func (s *SDNStack) CaptureState() (stack.State, error) {
	st := &SDNStackState{
		Synced:            s.synced,
		Uplink:            s.uplink,
		OwnHops:           s.ownHops,
		NextMaintain:      int64(s.nextMaintain),
		NextReport:        int64(s.nextReport),
		CfgEpoch:          s.cfgEpoch,
		Parent:            s.parent,
		Children:          append([]topology.NodeID(nil), s.children...),
		ConsecParentFails: s.consecParentFails,
		Epoch:             s.epoch,
		EpochCount:        s.epochCount,
		NextRecompute:     int64(s.nextRecompute),
	}
	st.HasHops = !s.hops.Nil()
	if s.hops.Len() > 0 {
		st.Hops = make([]SDNHopsState, 0, s.hops.Len())
		for _, e := range s.hops.Entries() {
			st.Hops = append(st.Hops, SDNHopsState{Node: e.ID, Hops: e.Val.hops, Heard: int64(e.Val.heard)})
		}
	}
	st.HasRSS = !s.rss.Nil()
	if s.rss.Len() > 0 {
		st.RSS = make([]SDNRSSState, 0, s.rss.Len())
		for _, e := range s.rss.Entries() {
			st.RSS = append(st.RSS, SDNRSSState{Node: e.ID, RSS: e.Val.rss, Heard: int64(e.Val.heard)})
		}
	}
	for _, e := range s.ctrlQ {
		st.CtrlQ = append(st.CtrlQ, SDNCtrlState{
			Frame:     mac.CaptureFrame(e.frame),
			Tries:     e.tries,
			NotBefore: int64(e.notBefore),
		})
	}
	for _, e := range s.reports.Entries() {
		st.Reports = append(st.Reports, SDNReportState{
			Node: e.ID, ASN: int64(e.Val.asn),
			Neigh: append([]SDNReportNeighbor(nil), e.Val.neigh...),
		})
	}
	for _, e := range s.lastSent.Entries() {
		st.LastSent = append(st.LastSent, SDNSentState{
			Node: e.ID, Parent: e.Val.parent,
			Children: append([]topology.NodeID(nil), e.Val.children...),
		})
	}
	return st, nil
}

// RestoreState overlays a captured stack state onto a freshly built stack
// (same node, same configuration).
func (s *SDNStack) RestoreState(state stack.State) error {
	st, ok := state.(*SDNStackState)
	if !ok {
		return fmt.Errorf("sdn stack %d: restoring %T", s.id, state)
	}
	if !s.controller() && (len(st.Reports) > 0 || len(st.LastSent) > 0 || st.EpochCount != 0) {
		return fmt.Errorf("sdn stack %d: controller state in a non-controller snapshot entry", s.id)
	}
	s.synced = st.Synced
	s.uplink = st.Uplink
	s.ownHops = st.OwnHops
	s.hops = link.Table[sdnHopsEntry]{}
	if st.HasHops {
		s.hops.Grow(len(st.Hops))
		for _, e := range st.Hops {
			s.hops.Put(e.Node, sdnHopsEntry{hops: e.Hops, heard: sim.ASN(e.Heard)})
		}
	}
	s.rss = link.Table[sdnRSSEntry]{}
	if st.HasRSS {
		s.rss.Grow(len(st.RSS))
		for _, e := range st.RSS {
			s.rss.Put(e.Node, sdnRSSEntry{rss: e.RSS, heard: sim.ASN(e.Heard)})
		}
	}
	s.nextMaintain = sim.ASN(st.NextMaintain)
	s.nextReport = sim.ASN(st.NextReport)
	s.cfgEpoch = st.CfgEpoch
	s.parent = st.Parent
	s.children = append([]topology.NodeID(nil), st.Children...)
	s.rebuildChildCells()
	s.consecParentFails = st.ConsecParentFails
	s.ctrlQ = nil
	for _, e := range st.CtrlQ {
		fs := e.Frame
		s.ctrlQ = append(s.ctrlQ, sdnCtrlEntry{
			frame:     fs.Restore(),
			tries:     e.Tries,
			notBefore: sim.ASN(e.NotBefore),
		})
	}
	if s.controller() {
		s.reports = link.Table[sdnReportEntry]{}
		for _, e := range st.Reports {
			s.reports.Put(e.Node, sdnReportEntry{
				asn:   sim.ASN(e.ASN),
				neigh: append([]SDNReportNeighbor(nil), e.Neigh...),
			})
		}
		s.epoch = st.Epoch
		s.epochCount = st.EpochCount
		s.nextRecompute = sim.ASN(st.NextRecompute)
		s.lastSent = link.Table[sdnNodeConfig]{}
		for _, e := range st.LastSent {
			s.lastSent.Put(e.Node, sdnNodeConfig{
				parent:   e.Parent,
				children: append([]topology.NodeID(nil), e.Children...),
			})
		}
	}
	return nil
}

// Routed implements stack.State: the controller has assigned a parent.
func (st *SDNStackState) Routed() bool { return st.Parent != 0 }

func codeNodeIDs(c *wire.Coder, ids *[]topology.NodeID) {
	wire.Slice(c, ids, 1, func(id *topology.NodeID) { wire.Uvarint(c, id) })
}

func codeSDNNeighbors(c *wire.Coder, ns *[]SDNReportNeighbor) {
	wire.Slice(c, ns, 9, func(e *SDNReportNeighbor) {
		wire.Uvarint(c, &e.Node)
		c.Float(&e.RSS)
	})
}

// Code implements stack.State: the "sdn" snapshot section layout.
func (st *SDNStackState) Code(c *wire.Coder) {
	c.Bool(&st.Synced)
	wire.Uvarint(c, &st.Uplink)
	c.U8(&st.OwnHops)
	c.Bool(&st.HasHops)
	if st.HasHops {
		wire.Slice(c, &st.Hops, 3, func(e *SDNHopsState) {
			wire.Uvarint(c, &e.Node)
			c.U8(&e.Hops)
			c.I64(&e.Heard)
		})
	}
	c.Bool(&st.HasRSS)
	if st.HasRSS {
		wire.Slice(c, &st.RSS, 10, func(e *SDNRSSState) {
			wire.Uvarint(c, &e.Node)
			c.Float(&e.RSS)
			c.I64(&e.Heard)
		})
	}
	c.I64(&st.NextMaintain)
	c.I64(&st.NextReport)
	c.U16(&st.CfgEpoch)
	wire.Uvarint(c, &st.Parent)
	codeNodeIDs(c, &st.Children)
	c.Int(&st.ConsecParentFails)
	wire.Slice(c, &st.CtrlQ, 8, func(e *SDNCtrlState) {
		e.Frame.Code(c)
		c.Int(&e.Tries)
		c.I64(&e.NotBefore)
	})
	wire.Slice(c, &st.Reports, 3, func(e *SDNReportState) {
		wire.Uvarint(c, &e.Node)
		c.I64(&e.ASN)
		codeSDNNeighbors(c, &e.Neigh)
	})
	c.U16(&st.Epoch)
	c.I64(&st.EpochCount)
	c.I64(&st.NextRecompute)
	wire.Slice(c, &st.LastSent, 3, func(e *SDNSentState) {
		wire.Uvarint(c, &e.Node)
		wire.Uvarint(c, &e.Parent)
		codeNodeIDs(c, &e.Children)
	})
}

// AdaptiveCellState is one cached neighbor cell-count entry.
type AdaptiveCellState struct {
	Node  topology.NodeID
	Cells int
}

// AdaptiveStackState is the complete mutable state of one adaptive stack:
// the RPL node's, the allocator's counters and the advertised cell counts.
// Like the node's listen cells, the cell-count cache is captured rather
// than recomputed on restore.
type AdaptiveStackState struct {
	rpl.NodeState

	TxCells        int
	IdleTicks      int
	FailsSinceTick int
	SentSinceTick  int

	// HasNeighborCells distinguishes a nil cache (never populated since
	// construction or reset) from an empty populated one; NeighborCells
	// is nil in both cases.
	HasNeighborCells bool
	NeighborCells    []AdaptiveCellState // sorted by node
}

// CaptureState implements stack.Node.
func (s *AdaptiveStack) CaptureState() (stack.State, error) {
	st := &AdaptiveStackState{
		NodeState:      s.Node.CaptureState(),
		TxCells:        s.txCells,
		IdleTicks:      s.idleTicks,
		FailsSinceTick: s.failsSinceTick,
		SentSinceTick:  s.sentSinceTick,
	}
	st.HasNeighborCells = !s.neighborCells.Nil()
	if s.neighborCells.Len() > 0 {
		st.NeighborCells = make([]AdaptiveCellState, 0, s.neighborCells.Len())
		for _, c := range s.neighborCells.Entries() {
			st.NeighborCells = append(st.NeighborCells, AdaptiveCellState{Node: c.ID, Cells: c.Val})
		}
	}
	return st, nil
}

// RestoreState overlays a captured stack state onto a freshly built stack
// (same node, same configuration, same build seed).
func (s *AdaptiveStack) RestoreState(state stack.State) error {
	st, ok := state.(*AdaptiveStackState)
	if !ok {
		return fmt.Errorf("adaptive stack %d: restoring %T", s.ID(), state)
	}
	s.Node.RestoreState(st.NodeState)
	s.setTxCells(st.TxCells)
	s.idleTicks = st.IdleTicks
	s.failsSinceTick = st.FailsSinceTick
	s.sentSinceTick = st.SentSinceTick
	s.neighborCells = link.Table[int]{}
	if st.HasNeighborCells {
		s.neighborCells.Grow(len(st.NeighborCells))
		for _, c := range st.NeighborCells {
			s.neighborCells.Put(c.Node, c.Cells)
		}
	}
	return nil
}

// Code implements stack.State: the "adpt" snapshot section layout — the
// RPL node's head, the allocator's own fields, the RPL node's tail.
func (st *AdaptiveStackState) Code(c *wire.Coder) {
	st.CodeControl(c)
	c.Int(&st.TxCells)
	c.Int(&st.IdleTicks)
	c.Int(&st.FailsSinceTick)
	c.Int(&st.SentSinceTick)
	c.Bool(&st.HasNeighborCells)
	if st.HasNeighborCells {
		wire.Slice(c, &st.NeighborCells, 2, func(cell *AdaptiveCellState) {
			wire.Uvarint(c, &cell.Node)
			c.Int(&cell.Cells)
		})
	}
	st.CodeChildCells(c)
}
