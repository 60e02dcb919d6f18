package orchestra

import (
	"fmt"

	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/wire"
)

// StackState is the complete mutable state of one Orchestra stack: the
// static hash keeps none beyond the RPL node's.
type StackState struct {
	rpl.NodeState
}

// CaptureState implements stack.Node.
func (s *Stack) CaptureState() (stack.State, error) {
	return &StackState{s.Node.CaptureState()}, nil
}

// RestoreState overlays a captured stack state onto a freshly built stack
// (same node, same configuration, same build seed).
func (s *Stack) RestoreState(state stack.State) error {
	st, ok := state.(*StackState)
	if !ok {
		return fmt.Errorf("orchestra stack %d: restoring %T", s.ID(), state)
	}
	s.Node.RestoreState(st.NodeState)
	return nil
}

// Code implements stack.State: the "orch" snapshot section layout. The int
// between the control-plane fields and the listen cells is reserved: it
// held the retry backoff of the receiver-based unicast mode, which no
// scenario ever built, so every snapshot on disk carries a zero there. It
// is written as zero, and a non-zero one is read and dropped: no state is
// left to hold it, and a snapshot that carried one was taken under a
// configuration whose hash no current build matches, so it can be
// inspected but never restored.
func (st *StackState) Code(c *wire.Coder) {
	st.CodeControl(c)
	reserved := 0
	c.Int(&reserved)
	st.CodeChildCells(c)
}
