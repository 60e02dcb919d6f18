package controller

import (
	"testing"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// parked is a timer deadline no test reaches.
const parked = sim.ASN(1) << 50

// requireNextActiveExact walks a stretch of slots backwards and requires
// NextActive to name, from every slot, precisely the first slot whose
// Assignment is not sleep. With the stack's timers parked its schedule is a
// pure function of the slot, so conservative is not enough: a cell NextActive
// invents costs a wake-up per frame for nothing.
func requireNextActiveExact(t *testing.T, name string, p mac.Protocol, from, span sim.ASN) {
	t.Helper()
	next := sim.ASN(-1)
	for asn := from + span; asn >= from; asn-- {
		if p.Assignment(asn).Role != mac.RoleSleep {
			next = asn
		}
		if got := p.NextActive(asn); next >= 0 && got != next {
			t.Fatalf("%s: NextActive(%d) = %d, first non-sleep slot is %d", name, asn, got, next)
		}
	}
	if next < 0 {
		t.Fatalf("%s: no active slot in %d slots", name, span)
	}
}

// TestNextActiveExactAdaptive: a routed node with a grown cell budget and
// two potential children advertising different budgets.
func TestNextActiveExactAdaptive(t *testing.T) {
	s := newTestAdaptive(t)
	s.router.OnDIO(10, 1, rpl.DIO{Rank: 4, PathETX: 1}, -60) // the parent
	if s.router.Parent() != 1 {
		t.Fatal("no parent selected")
	}
	own, _ := s.router.Advertisement()
	for _, child := range []topology.NodeID{5, 9} {
		s.router.OnDIO(10, child, rpl.DIO{Rank: own.Rank + 8, PathETX: own.PathETX + 2}, -70)
	}
	s.noteNeighborCells(5, 3)
	s.noteNeighborCells(9, 1)
	s.txCells = 3
	s.refreshChildCells()
	if len(s.childCells) != 4 {
		t.Fatalf("%d child cells, want 3+1", len(s.childCells))
	}
	s.nextMaintain = parked
	span := 2 * s.cfg.EBFrameLen
	requireNextActiveExact(t, "adaptive", s, 0, span)
	requireNextActiveExact(t, "adaptive", s, 13*s.cfg.EBFrameLen*s.cfg.DataFrameLen+5, span)

	// Parentless, the node keeps only beacons, the shared slot and its
	// children's cells.
	s.Reset()
	s.nextMaintain = parked
	requireNextActiveExact(t, "adaptive orphan", s, 0, span)
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
	requireNextActiveExact(t, "sdn bootstrapping", relay, 0, span)

	relay.uplink, relay.parent = 3, 3
	relay.children = []topology.NodeID{9, 12, 15}
	relay.rebuildChildCells()
	relay.ctrlQ = []sdnCtrlEntry{{frame: &sim.Frame{Kind: sim.KindReport, Src: 7, Dst: 3}}}
	requireNextActiveExact(t, "sdn relay", relay, 0, span)
	requireNextActiveExact(t, "sdn relay", relay, 11*cfg.EBFrameLen*cfg.CtrlFrameLen+3, span)

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
	requireNextActiveExact(t, "sdn controller", ctrl, 0, span)
}
