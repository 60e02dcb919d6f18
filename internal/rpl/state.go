package rpl

import (
	"github.com/digs-net/digs/internal/wire"
	"sort"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/topology"
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
