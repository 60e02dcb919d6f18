package orchestra

import (
	"fmt"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
	"github.com/digs-net/digs/internal/wire"
)

// ChildSlotState is one sender-cell cache entry (sender-based mode).
type ChildSlotState struct {
	Slot int64
	Node topology.NodeID
}

// StackState is the complete mutable state of one Orchestra stack. The
// child-slot cache is captured rather than recomputed on restore: it
// refreshes only at maintenance ticks, so a restore-time recompute could
// be fresher than the interrupted run's cache and diverge from it.
type StackState struct {
	Router   rpl.RouterState
	Trickle  trickle.State
	RNGDraws uint64

	WantDIO      bool
	NextMaintain int64
	NextSolicit  int64
	Synced       bool
	TxBackoff    int

	// HasChildSlots distinguishes a nil cache (never refreshed since
	// construction or reset) from an empty refreshed one.
	HasChildSlots bool
	ChildSlots    []ChildSlotState // sorted by slot
}

// CaptureState snapshots the stack. It fails for stacks constructed with
// an external RNG (NewStack with a caller-owned rand.Rand): only
// Build-created stacks track their generator position.
func (s *Stack) CaptureState() (stack.State, error) {
	if s.rngSrc == nil {
		return nil, fmt.Errorf("orchestra stack %d: not built with a checkpointable RNG (use orchestra.Build)", s.id)
	}
	st := &StackState{
		Router:       s.router.CaptureState(),
		Trickle:      s.tr.CaptureState(),
		RNGDraws:     s.rngSrc.Draws(),
		WantDIO:      s.wantDIO,
		NextMaintain: s.nextMaintain,
		NextSolicit:  s.nextSolicit,
		Synced:       s.synced,
		TxBackoff:    s.txBackoff,
	}
	if s.childSlots != nil {
		st.HasChildSlots = true
		st.ChildSlots = make([]ChildSlotState, 0, len(s.childSlots))
		for _, c := range s.childSlots {
			st.ChildSlots = append(st.ChildSlots, ChildSlotState{Slot: c.Offset, Node: c.Val})
		}
	}
	return st, nil
}

// RestoreState overlays a captured stack state onto a freshly built stack
// (same node, same configuration, same build seed).
func (s *Stack) RestoreState(state stack.State) error {
	st, ok := state.(*StackState)
	if !ok {
		return fmt.Errorf("orchestra stack %d: restoring %T", s.id, state)
	}
	if s.rngSrc == nil {
		return fmt.Errorf("orchestra stack %d: not built with a checkpointable RNG (use orchestra.Build)", s.id)
	}
	s.router.RestoreState(st.Router)
	s.tr.RestoreState(st.Trickle)
	s.rngSrc.Reset(st.RNGDraws)
	s.wantDIO = st.WantDIO
	s.nextMaintain = st.NextMaintain
	s.nextSolicit = st.NextSolicit
	s.synced = st.Synced
	s.txBackoff = st.TxBackoff
	if st.HasChildSlots {
		s.childSlots = make(mac.Cells[topology.NodeID], 0, len(st.ChildSlots))
		for _, c := range st.ChildSlots {
			s.childSlots = s.childSlots.Put(c.Slot, c.Node)
		}
	} else {
		s.childSlots = nil
	}
	return nil
}

// Codec is the Orchestra stack's registration: protocol "orchestra", one
// StackState per node in the "orch" snapshot section.
var Codec = stack.Codec{Protocol: "orchestra", Section: "orch", Read: readState}

func init() { stack.Register(Codec) }

// Routed implements stack.State.
func (st *StackState) Routed() bool { return st.Router.HasParentedAt }

// AppendTo implements stack.State: the "orch" snapshot section layout.
func (st *StackState) AppendTo(w *wire.Writer) {
	st.Router.AppendTo(w)
	st.Trickle.AppendTo(w)
	w.U64(st.RNGDraws)
	w.Bool(st.WantDIO)
	w.I64(st.NextMaintain)
	w.I64(st.NextSolicit)
	w.Bool(st.Synced)
	w.Int(st.TxBackoff)
	w.Bool(st.HasChildSlots)
	if st.HasChildSlots {
		w.U64(uint64(len(st.ChildSlots)))
		for _, c := range st.ChildSlots {
			w.I64(c.Slot)
			w.U64(uint64(c.Node))
		}
	}
}

func readState(r *wire.Reader) stack.State {
	st := &StackState{}
	st.Router = rpl.ReadRouterState(r)
	st.Trickle = trickle.ReadState(r)
	st.RNGDraws = r.U64()
	st.WantDIO = r.Bool()
	st.NextMaintain = r.I64()
	st.NextSolicit = r.I64()
	st.Synced = r.Bool()
	st.TxBackoff = r.Int()
	if r.Bool() {
		st.HasChildSlots = true
		if n := r.Count(2); n > 0 {
			st.ChildSlots = make([]ChildSlotState, n)
			for i := range st.ChildSlots {
				st.ChildSlots[i].Slot = r.I64()
				st.ChildSlots[i].Node = topology.NodeID(r.U64())
			}
		}
	}
	return st
}
