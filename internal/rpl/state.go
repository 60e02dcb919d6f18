package rpl

import (
	"sort"

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

// CaptureState snapshots the router, with the neighbour table sorted for a
// stable wire form.
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
	if len(r.neighbors) > 0 {
		st.Neighbors = make([]NeighborState, 0, len(r.neighbors))
		for id, e := range r.neighbors {
			st.Neighbors = append(st.Neighbors, NeighborState{Node: id, Rank: e.rank,
				PathETX: e.pathETX, LastHeard: e.lastHeard})
		}
		sort.Slice(st.Neighbors, func(i, j int) bool { return st.Neighbors[i].Node < st.Neighbors[j].Node })
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
	r.neighbors = make(map[topology.NodeID]neighborEntry, len(st.Neighbors))
	for _, e := range st.Neighbors {
		r.neighbors[e.Node] = neighborEntry{rank: e.Rank, pathETX: e.PathETX, lastHeard: e.LastHeard}
	}
	r.firstParentAt = st.FirstParentAt
	r.hasParentedAt = st.HasParentedAt
	r.parentChanges = st.ParentChanges
}

// AppendTo writes the routing state in its snapshot wire form.
func (st *RouterState) AppendTo(w *wire.Writer) {
	w.U16(st.Rank)
	w.Float(st.PathETX)
	w.U64(uint64(st.Parent))
	w.U64(uint64(len(st.Neighbors)))
	for _, e := range st.Neighbors {
		w.U64(uint64(e.Node))
		w.U16(e.Rank)
		w.Float(e.PathETX)
		w.I64(e.LastHeard)
	}
	link.AppendStates(w, st.Links)
	w.I64(st.FirstParentAt)
	w.Bool(st.HasParentedAt)
	w.I64(st.ParentChanges)
}

// ReadRouterState decodes what AppendTo wrote.
func ReadRouterState(r *wire.Reader) RouterState {
	var st RouterState
	st.Rank = r.U16()
	st.PathETX = r.Float()
	st.Parent = topology.NodeID(r.U64())
	if n := r.Count(12); n > 0 {
		st.Neighbors = make([]NeighborState, n)
		for i := range st.Neighbors {
			st.Neighbors[i].Node = topology.NodeID(r.U64())
			st.Neighbors[i].Rank = r.U16()
			st.Neighbors[i].PathETX = r.Float()
			st.Neighbors[i].LastHeard = r.I64()
		}
	}
	st.Links = link.ReadStates(r)
	st.FirstParentAt = r.I64()
	st.HasParentedAt = r.Bool()
	st.ParentChanges = r.I64()
	return st
}

// ChildCellState is one listen-cell table entry.
type ChildCellState struct {
	Slot int64
	Node topology.NodeID
}

// NodeState is the complete mutable state of a Node. A stack's own state
// embeds it and writes it as the two ends of its snapshot section, its own
// fields in between: AppendControl first, AppendChildCells last. The
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
	// construction or reset) from an empty refreshed one.
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
	if n.childCells != nil {
		st.HasChildCells = true
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

// AppendControl writes the head of a stack's snapshot section: the router,
// the Trickle timer, the generator position and the four control-plane
// fields.
func (st *NodeState) AppendControl(w *wire.Writer) {
	st.Router.AppendTo(w)
	st.Trickle.AppendTo(w)
	w.U64(st.RNGDraws)
	w.Bool(st.WantDIO)
	w.I64(st.NextMaintain)
	w.I64(st.NextSolicit)
	w.Bool(st.Synced)
}

// ReadControl decodes what AppendControl wrote.
func (st *NodeState) ReadControl(r *wire.Reader) {
	st.Router = ReadRouterState(r)
	st.Trickle = trickle.ReadState(r)
	st.RNGDraws = r.U64()
	st.WantDIO = r.Bool()
	st.NextMaintain = r.I64()
	st.NextSolicit = r.I64()
	st.Synced = r.Bool()
}

// AppendChildCells writes the tail of a stack's snapshot section: the
// listen-cell table behind its has-flag.
func (st *NodeState) AppendChildCells(w *wire.Writer) {
	w.Bool(st.HasChildCells)
	if st.HasChildCells {
		w.U64(uint64(len(st.ChildCells)))
		for _, c := range st.ChildCells {
			w.I64(c.Slot)
			w.U64(uint64(c.Node))
		}
	}
}

// ReadChildCells decodes what AppendChildCells wrote.
func (st *NodeState) ReadChildCells(r *wire.Reader) {
	if st.HasChildCells = r.Bool(); !st.HasChildCells {
		return
	}
	if n := r.Count(2); n > 0 {
		st.ChildCells = make([]ChildCellState, n)
		for i := range st.ChildCells {
			st.ChildCells[i].Slot = r.I64()
			st.ChildCells[i].Node = topology.NodeID(r.U64())
		}
	}
}
