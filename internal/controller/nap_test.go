package controller

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/mac/mactest"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// parked is a timer deadline no test reaches.
const parked = sim.ASN(1) << 50

// TestNextActiveExactAdaptive: a routed node with a grown cell budget and
// two potential children advertising different budgets. The maintenance tick
// runs once, at the first Assignment, and is then parked a century away.
func TestNextActiveExactAdaptive(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	cfg.MaintainEvery = 100 * 365 * 24 * time.Hour
	s, err := NewAdaptiveStack(2, false, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	dio := func(from topology.NodeID, d rpl.DIO, cells byte) {
		s.OnFrame(10, &sim.Frame{Kind: sim.KindJoinIn, Src: from, Payload: append(d.Marshal(), cells)}, -60)
	}
	dio(1, rpl.DIO{Rank: 4, PathETX: 1}, 1) // the parent
	if s.Router().Parent() != 1 {
		t.Fatal("no parent selected")
	}
	own, _ := s.Router().Advertisement()
	below := rpl.DIO{Rank: own.Rank + 8, PathETX: own.PathETX + 2}
	dio(5, below, 3)
	dio(9, below, 1)
	s.txCells = 3
	s.Assignment(0) // the tick: an idle adapt, then the listen cells
	listens := 0
	for off := int64(0); off < cfg.DataFrameLen; off++ {
		if s.ListensAt(off) {
			listens++
		}
	}
	if s.txCells != 3 || listens != 4 {
		t.Fatalf("%d own cells and %d child cells, want 3 and 3+1", s.txCells, listens)
	}
	span := 2 * cfg.EBFrameLen
	mactest.RequireNextActiveExact(t, "adaptive", s, 0, span)
	mactest.RequireNextActiveExact(t, "adaptive", s, 13*cfg.EBFrameLen*cfg.DataFrameLen+5, span)

	// Parentless, the node keeps only beacons and the shared slot.
	s.Reset()
	s.Assignment(0)
	mactest.RequireNextActiveExact(t, "adaptive orphan", s, 0, span)
}

// TestNextActiveExactSDN: a configured relay with children and a control
// frame queued, and the controller with its four receive cells. The queued
// frame's backoff is the one declared exception: its cell is reported while
// the frame may not go out yet.
func TestNextActiveExactSDN(t *testing.T) {
	cfg := DefaultSDNConfig()
	relay, err := NewSDNStack(7, false, 1, 20, []topology.NodeID{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	relay.nextMaintain = parked
	span := 2 * cfg.EBFrameLen
	mactest.RequireNextActiveExact(t, "sdn bootstrapping", relay, 0, span)

	relay.uplink, relay.parent = 3, 3
	relay.children = []topology.NodeID{9, 12, 15}
	relay.rebuildChildCells()
	relay.ctrlQ = []sdnCtrlEntry{{frame: &sim.Frame{Kind: sim.KindReport, Src: 7, Dst: 3}}}
	mactest.RequireNextActiveExact(t, "sdn relay", relay, 0, span)
	mactest.RequireNextActiveExact(t, "sdn relay", relay, 11*cfg.EBFrameLen*cfg.CtrlFrameLen+3, span)

	relay.ctrlQ[0].notBefore = parked
	cell := relay.ctrlCellTo(3)
	at := mac.NextOffset(cfg.EBFrameLen, cfg.CtrlFrameLen, cell) // past the discovery offsets
	if relay.Assignment(at).Role != mac.RoleSleep {
		t.Skip("the queue head's cell coincides with another cell: nothing to show")
	}
	if got := relay.NextActive(at); got != at {
		t.Fatalf("NextActive(%d) = %d: the backed-off queue head's cell must still wake the node", at, got)
	}

	ctrl, err := NewSDNStack(1, true, 1, 20, []topology.NodeID{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.nextMaintain = parked
	mactest.RequireNextActiveExact(t, "sdn controller", ctrl, 0, span)
}
