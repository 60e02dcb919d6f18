package core

import (
	"fmt"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
	"github.com/digs-net/digs/internal/wire"
)

// NeighborState is one neighbour-table entry as plain old data.
type NeighborState struct {
	Node      topology.NodeID
	Rank      uint16
	ETXw      float64
	LastHeard int64
}

// ChildState is one child-table entry as plain old data.
type ChildState struct {
	Node      topology.NodeID
	Role      uint8
	LastHeard int64
}

// RouterState is the complete mutable routing state of one DiGS node.
type RouterState struct {
	Rank          uint16
	ETXw          float64
	Best          topology.NodeID
	Second        topology.NodeID
	ETXaBest      float64
	ETXaSecond    float64
	Neighbors     []NeighborState // sorted by node ID
	Children      []ChildState    // sorted by node ID
	Links         []link.LinkState
	FirstParentAt int64
	HasParentedAt bool
	ParentChanges int64
	ChildVersion  int64
}

// PendingCallbackState is one queued joined-callback.
type PendingCallbackState struct {
	To    topology.NodeID
	Role  uint8
	Tries int
}

// StackState is the complete mutable state of one DiGS stack: router,
// Trickle timer, RNG position and the handshake/maintenance registers.
// The scheduler's cell table and parent offset are caches keyed on the
// router's child version and best parent, rebuilt lazily after a restore.
type StackState struct {
	Router   RouterState
	Trickle  trickle.State
	RNGDraws uint64

	Pending      []PendingCallbackState
	WantJoinIn   bool
	NextMaintain int64
	NextSolicit  int64
	Synced       bool

	LastBest        topology.NodeID
	LastSecond      topology.NodeID
	BestConfirmed   bool
	SecondConfirmed bool
	FallbackParent  topology.NodeID
}

// CaptureState snapshots the router. The tables are captured in their own
// ascending-ID order, which is the wire form's.
func (r *Router) CaptureState() RouterState {
	st := RouterState{
		Rank:          r.rank,
		ETXw:          r.etxw,
		Best:          r.best,
		Second:        r.second,
		ETXaBest:      r.etxaBest,
		ETXaSecond:    r.etxaSecond,
		Links:         r.est.CaptureState(),
		FirstParentAt: r.firstParentAt,
		HasParentedAt: r.hasParentedAt,
		ParentChanges: r.parentChanges,
		ChildVersion:  r.childVersion,
	}
	if r.neighbors.Len() > 0 {
		st.Neighbors = make([]NeighborState, 0, r.neighbors.Len())
		for _, e := range r.neighbors.Entries() {
			st.Neighbors = append(st.Neighbors, NeighborState{Node: e.ID, Rank: e.Val.rank,
				ETXw: e.Val.etxw, LastHeard: e.Val.lastHeard})
		}
	}
	if r.children.Len() > 0 {
		st.Children = make([]ChildState, 0, r.children.Len())
		for _, c := range r.children.Entries() {
			st.Children = append(st.Children, ChildState{Node: c.ID, Role: uint8(c.Val.role),
				LastHeard: c.Val.lastHeard})
		}
	}
	return st
}

// RestoreState overlays a captured routing state. The OnRouteChange
// callback installed on the freshly built router survives.
func (r *Router) RestoreState(st RouterState) {
	r.rank = st.Rank
	r.etxw = st.ETXw
	r.best = st.Best
	r.second = st.Second
	r.etxaBest = st.ETXaBest
	r.etxaSecond = st.ETXaSecond
	r.est.RestoreState(st.Links)
	r.neighbors = link.Table[neighborEntry]{}
	r.neighbors.Grow(len(st.Neighbors))
	for _, e := range st.Neighbors {
		r.neighbors.Put(e.Node, neighborEntry{rank: e.Rank, etxw: e.ETXw, lastHeard: e.LastHeard})
	}
	r.children = link.Table[childEntry]{}
	r.children.Grow(len(st.Children))
	for _, c := range st.Children {
		r.children.Put(c.Node, childEntry{role: ParentRole(c.Role), lastHeard: c.LastHeard})
	}
	r.firstParentAt = st.FirstParentAt
	r.hasParentedAt = st.HasParentedAt
	r.parentChanges = st.ParentChanges
	r.childVersion = st.ChildVersion
}

// CaptureState snapshots the stack. It fails for stacks constructed with
// an external RNG (NewStack with a caller-owned rand.Rand): only
// Build-created stacks track their generator position.
func (s *Stack) CaptureState() (stack.State, error) {
	if s.rngSrc == nil {
		return nil, fmt.Errorf("digs stack %d: not built with a checkpointable RNG (use core.Build)", s.id)
	}
	st := &StackState{
		Router:          s.router.CaptureState(),
		Trickle:         s.tr.CaptureState(),
		RNGDraws:        s.rngSrc.Draws(),
		WantJoinIn:      s.wantJoinIn,
		NextMaintain:    s.nextMaintain,
		NextSolicit:     s.nextSolicit,
		Synced:          s.synced,
		LastBest:        s.lastBest,
		LastSecond:      s.lastSecond,
		BestConfirmed:   s.bestConfirmed,
		SecondConfirmed: s.secondConfirmed,
		FallbackParent:  s.fallbackParent,
	}
	if len(s.pending) > 0 {
		st.Pending = make([]PendingCallbackState, len(s.pending))
		for i, p := range s.pending {
			st.Pending[i] = PendingCallbackState{To: p.to, Role: uint8(p.role), Tries: p.tries}
		}
	}
	return st, nil
}

// RestoreState overlays a captured stack state onto a freshly built stack
// (same node, same configuration, same build seed). The schedule's cell
// table is invalidated; it rebuilds lazily from the restored child table,
// exactly as it would have after the next child change.
func (s *Stack) RestoreState(state stack.State) error {
	st, ok := state.(*StackState)
	if !ok {
		return fmt.Errorf("digs stack %d: restoring %T", s.id, state)
	}
	if s.rngSrc == nil {
		return fmt.Errorf("digs stack %d: not built with a checkpointable RNG (use core.Build)", s.id)
	}
	s.router.RestoreState(st.Router)
	s.tr.RestoreState(st.Trickle)
	s.rngSrc.Reset(st.RNGDraws)
	s.pending = nil
	if len(st.Pending) > 0 {
		s.pending = make([]pendingCallback, len(st.Pending))
		for i, p := range st.Pending {
			s.pending[i] = pendingCallback{to: p.To, role: ParentRole(p.Role), tries: p.Tries}
		}
	}
	s.wantJoinIn = st.WantJoinIn
	s.nextMaintain = st.NextMaintain
	s.nextSolicit = st.NextSolicit
	s.synced = st.Synced
	s.lastBest = st.LastBest
	s.lastSecond = st.LastSecond
	s.bestConfirmed = st.BestConfirmed
	s.secondConfirmed = st.SecondConfirmed
	s.fallbackParent = st.FallbackParent
	s.sched.cellsValid = false
	return nil
}

// Routed implements stack.State.
func (st *StackState) Routed() bool { return st.Router.HasParentedAt }

// code walks the routing state in its snapshot wire form. The narrowest
// neighbour entry is 11 bytes: a float and three one-byte varints.
func (st *RouterState) code(c *wire.Coder) {
	c.U16(&st.Rank)
	c.Float(&st.ETXw)
	wire.Uvarint(c, &st.Best)
	wire.Uvarint(c, &st.Second)
	c.Float(&st.ETXaBest)
	c.Float(&st.ETXaSecond)
	wire.Slice(c, &st.Neighbors, 11, func(e *NeighborState) {
		wire.Uvarint(c, &e.Node)
		c.U16(&e.Rank)
		c.Float(&e.ETXw)
		c.I64(&e.LastHeard)
	})
	wire.Slice(c, &st.Children, 3, func(ch *ChildState) {
		wire.Uvarint(c, &ch.Node)
		c.U8(&ch.Role)
		c.I64(&ch.LastHeard)
	})
	link.CodeStates(c, &st.Links)
	c.I64(&st.FirstParentAt)
	c.Bool(&st.HasParentedAt)
	c.I64(&st.ParentChanges)
	c.I64(&st.ChildVersion)
}

// Code implements stack.State: the "digs" snapshot section layout.
func (st *StackState) Code(c *wire.Coder) {
	st.Router.code(c)
	st.Trickle.Code(c)
	c.U64(&st.RNGDraws)
	wire.Slice(c, &st.Pending, 3, func(p *PendingCallbackState) {
		wire.Uvarint(c, &p.To)
		c.U8(&p.Role)
		c.Int(&p.Tries)
	})
	c.Bool(&st.WantJoinIn)
	c.I64(&st.NextMaintain)
	c.I64(&st.NextSolicit)
	c.Bool(&st.Synced)
	wire.Uvarint(c, &st.LastBest)
	wire.Uvarint(c, &st.LastSecond)
	c.Bool(&st.BestConfirmed)
	c.Bool(&st.SecondConfirmed)
	wire.Uvarint(c, &st.FallbackParent)
}
