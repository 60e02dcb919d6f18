package orchestra

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac/mactest"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/topology"
)

// TestNextActiveExact: the sender-based schedule every figure runs. A
// routed node with two potential children must name exactly its own transmit
// cell, the children's cells, its beacon slot, its parent's and the shared
// slot; parentless, it keeps only the beacons and the shared slot. The
// maintenance tick runs once, at the first Assignment, and is then parked a
// century away, so the schedule is a pure function of the slot.
func TestNextActiveExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaintainEvery = 100 * 365 * 24 * time.Hour
	s, err := NewStack(9, false, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Router().OnDIO(0, 4, rpl.DIO{Rank: 4, PathETX: 1}, -60) // the parent
	if s.Router().Parent() != 4 {
		t.Fatal("no parent selected")
	}
	own, _ := s.Router().Advertisement()
	for _, child := range []topology.NodeID{12, 20} {
		s.Router().OnDIO(0, child, rpl.DIO{Rank: own.Rank + 8, PathETX: own.PathETX + 2}, -70)
	}
	s.Assignment(0) // the tick: listen cells placed
	for _, child := range []topology.NodeID{12, 20} {
		if !listensAt(s, TxSlot(child, cfg.UnicastFrameLen)) {
			t.Fatalf("not listening in child %d's cell", child)
		}
	}
	span := 2 * cfg.EBFrameLen
	mactest.RequireNextActiveExact(t, "orchestra", s, 0, span)
	mactest.RequireNextActiveExact(t, "orchestra", s, 13*cfg.EBFrameLen*cfg.UnicastFrameLen+5, span)

	s.Reset()
	s.Assignment(0)
	if listensAt(s, TxSlot(12, cfg.UnicastFrameLen)) {
		t.Fatal("listen cells survived the reset")
	}
	mactest.RequireNextActiveExact(t, "orchestra orphan", s, 0, span)
}

// listensAt reports whether the stack's listen-cell table holds the offset.
func listensAt(s *Stack, offset int64) bool {
	st, _ := s.CaptureState()
	for _, c := range st.(*StackState).ChildCells {
		if c.Slot == offset {
			return true
		}
	}
	return false
}
