package rpl

import (
	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
	"github.com/digs-net/digs/internal/wire"
)

// NeighborState is one RPL neighbour-table entry as plain old data.
type NeighborState struct {
	Node      topology.NodeID
	Rank      uint16
	PathETX   float64
	LastHeard int64
}

// RouterState is the complete mutable RPL routing state of one node.
type RouterState struct {
	Rank          uint16
	PathETX       float64
	Parent        topology.NodeID
	Neighbors     []NeighborState // sorted by node ID
	Links         []link.LinkState
	FirstParentAt int64
	HasParentedAt bool
	ParentChanges int64
}

// CaptureState snapshots the router. The neighbour table is captured in its
// own ascending-ID order, which is the wire form's.
func (r *Router) CaptureState() RouterState {
	st := RouterState{
		Rank:          r.rank,
		PathETX:       r.pathETX,
		Parent:        r.parent,
		Links:         r.est.CaptureState(),
		FirstParentAt: r.firstParentAt,
		HasParentedAt: r.hasParentedAt,
		ParentChanges: r.parentChanges,
	}
	if r.neighbors.Len() > 0 {
		st.Neighbors = make([]NeighborState, 0, r.neighbors.Len())
		for _, e := range r.neighbors.Entries() {
			st.Neighbors = append(st.Neighbors, NeighborState{Node: e.ID, Rank: e.Val.rank,
				PathETX: e.Val.pathETX, LastHeard: e.Val.lastHeard})
		}
	}
	return st
}

// RestoreState overlays a captured routing state. The OnParentChange
// callback installed on the freshly built router survives.
func (r *Router) RestoreState(st RouterState) {
	r.rank = st.Rank
	r.pathETX = st.PathETX
	r.parent = st.Parent
	r.est.RestoreState(st.Links)
	r.neighbors = link.Table[neighborEntry]{}
	r.neighbors.Grow(len(st.Neighbors))
	for _, e := range st.Neighbors {
		r.neighbors.Put(e.Node, neighborEntry{rank: e.Rank, pathETX: e.PathETX, lastHeard: e.LastHeard})
	}
	r.firstParentAt = st.FirstParentAt
	r.hasParentedAt = st.HasParentedAt
	r.parentChanges = st.ParentChanges
}

// Code walks the routing state in its snapshot wire form. The narrowest
// neighbour entry is 11 bytes: a float and three one-byte varints.
func (st *RouterState) Code(c *wire.Coder) {
	c.U16(&st.Rank)
	c.Float(&st.PathETX)
	wire.Uvarint(c, &st.Parent)
	wire.Slice(c, &st.Neighbors, 11, func(e *NeighborState) {
		wire.Uvarint(c, &e.Node)
		c.U16(&e.Rank)
		c.Float(&e.PathETX)
		c.I64(&e.LastHeard)
	})
	link.CodeStates(c, &st.Links)
	c.I64(&st.FirstParentAt)
	c.Bool(&st.HasParentedAt)
	c.I64(&st.ParentChanges)
}

// ChildCellState is one listen-cell table entry.
type ChildCellState struct {
	Slot int64
	Node topology.NodeID
}

// NodeState is the complete mutable state of a Node. A stack's own state
// embeds it and walks it as the two ends of its snapshot section, its own
// fields in between: CodeControl first, CodeChildCells last. The
// listen-cell table is captured rather than recomputed on restore: it
// refreshes only at maintenance ticks, so a restore-time recompute could be
// fresher than the interrupted run's table and diverge from it.
type NodeState struct {
	Router   RouterState
	Trickle  trickle.State
	RNGDraws uint64

	WantDIO      bool
	NextMaintain int64
	NextSolicit  int64
	Synced       bool

	// HasChildCells distinguishes a nil table (never refreshed since
	// construction or reset) from an empty refreshed one; ChildCells is
	// nil in both cases.
	HasChildCells bool
	ChildCells    []ChildCellState // sorted by slot
}

// CaptureState snapshots the node.
func (n *Node) CaptureState() NodeState {
	st := NodeState{
		Router:       n.router.CaptureState(),
		Trickle:      n.tr.CaptureState(),
		RNGDraws:     n.src.Draws(),
		WantDIO:      n.wantDIO,
		NextMaintain: n.nextMaintain,
		NextSolicit:  n.nextSolicit,
		Synced:       n.synced,
	}
	st.HasChildCells = n.childCells != nil
	if len(n.childCells) > 0 {
		st.ChildCells = make([]ChildCellState, 0, len(n.childCells))
		for _, c := range n.childCells {
			st.ChildCells = append(st.ChildCells, ChildCellState{Slot: c.Offset, Node: c.Val})
		}
	}
	return st
}

// RestoreState overlays a captured state onto a freshly built node (same
// node, same configuration, same seed).
func (n *Node) RestoreState(st NodeState) {
	n.router.RestoreState(st.Router)
	n.tr.RestoreState(st.Trickle)
	n.src.Reset(st.RNGDraws)
	n.wantDIO = st.WantDIO
	n.nextMaintain = st.NextMaintain
	n.nextSolicit = st.NextSolicit
	n.synced = st.Synced
	n.childCells = nil
	if st.HasChildCells {
		n.childCells = make(mac.Cells[topology.NodeID], 0, len(st.ChildCells))
		for _, c := range st.ChildCells {
			n.childCells = n.childCells.Put(c.Slot, c.Node)
		}
	}
}

// Routed implements stack.State for the states that embed a NodeState.
func (st *NodeState) Routed() bool { return st.Router.HasParentedAt }

// CodeControl walks the head of a stack's snapshot section: the router,
// the Trickle timer, the generator position and the four control-plane
// fields.
func (st *NodeState) CodeControl(c *wire.Coder) {
	st.Router.Code(c)
	st.Trickle.Code(c)
	c.U64(&st.RNGDraws)
	c.Bool(&st.WantDIO)
	c.I64(&st.NextMaintain)
	c.I64(&st.NextSolicit)
	c.Bool(&st.Synced)
}

// CodeChildCells walks the tail of a stack's snapshot section: the
// listen-cell table behind its has-flag.
func (st *NodeState) CodeChildCells(c *wire.Coder) {
	c.Bool(&st.HasChildCells)
	if st.HasChildCells {
		wire.Slice(c, &st.ChildCells, 2, func(cell *ChildCellState) {
			c.I64(&cell.Slot)
			wire.Uvarint(c, &cell.Node)
		})
	}
}
