package controller

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/mac/mactest"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// parked is a timer deadline no test reaches.
const parked = sim.ASN(1) << 50

// TestNextActiveExactAdaptive: a routed node with a grown cell budget and
// two potential children advertising different budgets. The maintenance tick
// runs once, at the first Assignment, and is then parked a century away.
// Then, over random states, Assignment and NextActive answer like the
// reference the stack was once combined from (adaptiveRef).
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
	s.setTxCells(3)
	s.Assignment(0) // the tick: an idle adapt, then the listen cells
	if listens := len(s.Node.CaptureState().ChildCells); s.txCells != 3 || listens != 4 {
		t.Fatalf("%d own cells and %d child cells, want 3 and 3+1", s.txCells, listens)
	}
	span := 2 * cfg.EBFrameLen
	mactest.RequireNextActiveExact(t, "adaptive", s, 0, span)
	mactest.RequireNextActiveExact(t, "adaptive", s, 13*cfg.EBFrameLen*cfg.DataFrameLen+5, span)

	// Parentless, the node keeps only beacons and the shared slot.
	s.Reset()
	s.Assignment(0)
	mactest.RequireNextActiveExact(t, "adaptive orphan", s, 0, span)

	requireAdaptiveMatchesReference(t)
}

// refFrame is one slotframe of a reference schedule, its role a function
// of the slot's offset in the frame.
type refFrame struct {
	length  int64
	channel uint8
	role    func(offset int64) (mac.SlotRole, int)
}

// combine is the priority combination the stacks write out: the first
// frame, in priority order, that does not sleep in the slot wins it on its
// lane.
func combine(asn sim.ASN, frames ...refFrame) mac.Assignment {
	for _, f := range frames {
		if role, attempt := f.role(asn % f.length); role != mac.RoleSleep {
			return mac.Assignment{Role: role, ChannelOffset: f.channel, Attempt: attempt}
		}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

func sleepRole() (mac.SlotRole, int) { return mac.RoleSleep, 0 }

// adaptiveRef is the adaptive stack's schedule as it was combined before
// the RPL node wrote it out: the beacon, shared and data slotframes by
// priority, the data frame's role the stack's own — transmit in its
// txCells strided cells once parented, listen wherever a child's cell
// sits — and the unicast lanes (rpl's: 2 + id*13 mod 12) fixed up
// afterwards. It is built from a capture of the stack's state, so a
// restore that leaves the node's transmit cells behind the stack's budget
// shows.
type adaptiveRef struct {
	id      topology.NodeID
	cfg     AdaptiveConfig
	txCells int
	st      rpl.NodeState
	listen  map[int64]topology.NodeID
	tr      *trickle.Timer
}

func newAdaptiveRef(s *AdaptiveStack) *adaptiveRef {
	r := &adaptiveRef{id: s.ID(), cfg: s.cfg, txCells: s.txCells, st: s.Node.CaptureState(),
		listen: map[int64]topology.NodeID{}}
	for _, c := range r.st.ChildCells {
		r.listen[c.Slot] = c.Node
	}
	r.tr, _ = trickle.NewTimer(s.cfg.Trickle, rand.New(rand.NewSource(0)))
	r.tr.RestoreState(r.st.Trickle)
	return r
}

func (r *adaptiveRef) assignment(asn sim.ASN) mac.Assignment {
	cfg, parent := r.cfg, r.st.Router.Parent
	lane := func(n topology.NodeID) uint8 { return 2 + uint8((int64(n)*13)%12) }
	a := combine(asn,
		refFrame{cfg.EBFrameLen, ebChannelOffset, func(off int64) (mac.SlotRole, int) {
			if off == int64(r.id-1)%cfg.EBFrameLen {
				return mac.RoleTxEB, 0
			}
			if parent != 0 && off == int64(parent-1)%cfg.EBFrameLen {
				return mac.RoleRxEB, 0
			}
			return sleepRole()
		}},
		refFrame{cfg.SharedFrameLen, 1, func(off int64) (mac.SlotRole, int) {
			if off == 0 {
				return mac.RoleShared, 0
			}
			return sleepRole()
		}},
		refFrame{cfg.DataFrameLen, 2, func(off int64) (mac.SlotRole, int) {
			if parent != 0 {
				for j := 0; j < r.txCells; j++ {
					if off == adaptiveCellSlot(r.id, j, cfg.DataFrameLen) {
						return mac.RoleTxData, 1
					}
				}
			}
			if _, ok := r.listen[off]; ok {
				return mac.RoleRxData, 0
			}
			return sleepRole()
		}},
	)
	switch a.Role {
	case mac.RoleTxData:
		a.ChannelOffset = lane(r.id)
	case mac.RoleRxData:
		a.ChannelOffset = lane(r.listen[asn%cfg.DataFrameLen])
	}
	return a
}

// nextActive finds by brute force the first slot at or after `after` where
// the reference is not sleep — nor, with nothing queued, an own transmit
// cell — or a timer is due: the maintenance tick, and the Trickle timer's
// next event once synchronised.
func (r *adaptiveRef) nextActive(after sim.ASN, queued bool) sim.ASN {
	due := max(sim.ASN(r.st.NextMaintain), after)
	if r.st.Synced {
		due = min(due, max(r.tr.NextEvent(after), after))
	}
	for asn := after; asn < due; asn++ {
		if role := r.assignment(asn).Role; role != mac.RoleSleep && (queued || role != mac.RoleTxData) {
			return asn
		}
	}
	return due
}

// requireAdaptiveMatchesReference drives adaptive stacks through random
// states — short frames so that cells coincide, advertised budgets of 0..5
// cells, queue pressure and losses growing the node's own budget through
// 1..MaxCells and idleness shrinking it, parents adopted and lost,
// synchronisation, Reset, and restores of a twin's state whose budget
// differs — and requires, at random slots walked the way the engine does,
// NextActive and Assignment to answer like adaptiveRef.
func requireAdaptiveMatchesReference(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(37))
	budgets := map[int]bool{}
	var parented, restoredBudget int
	for trial := 0; trial < 40; trial++ {
		cfg := DefaultAdaptiveConfig()
		for {
			cfg.EBFrameLen = 2 + rng.Int63n(40)
			cfg.SharedFrameLen = 2 + rng.Int63n(20)
			cfg.DataFrameLen = 1 + rng.Int63n(60)
			cfg.MaxCells = 4 - rng.Intn(2)*rng.Intn(4)
			if cfg.Validate() == nil {
				break
			}
		}
		cfg.MaintainEvery = time.Duration(1+rng.Intn(2)) * time.Second
		cfg.NeighborTimeout = time.Duration(3+rng.Intn(8)) * time.Second
		id := topology.NodeID(2 + rng.Intn(60))
		queue := 0
		build := func(seed int64) *AdaptiveStack {
			s, err := NewAdaptiveStack(id, false, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			s.queueLen = func() int { return queue }
			return s
		}
		s, twin := build(int64(trial)), build(int64(trial)+1000)

		asn := sim.ASN(0)
		for step := 0; step < 30; step++ {
			target := s
			if rng.Intn(3) == 0 {
				target = twin
			}
			switch op := rng.Intn(12); {
			case op < 4: // an advertisement with its sender's budget
				from := topology.NodeID(1 + rng.Intn(60))
				if from != id {
					d := rpl.DIO{Rank: uint16(1 + rng.Intn(40)), PathETX: 4 * rng.Float64()}
					f := &sim.Frame{Kind: sim.KindJoinIn, Src: from, Payload: append(d.Marshal(), byte(rng.Intn(6)))}
					target.OnFrame(asn, f, -60-30*rng.Float64())
				}
			case op < 6: // a data transmission to the parent
				if p := target.Router().Parent(); p != 0 {
					target.OnTxResult(asn, &sim.Frame{Kind: sim.KindData}, p, rng.Intn(3) == 0)
				}
			case op < 7:
				queue = rng.Intn(7)
			case op < 8:
				if !target.Node.CaptureState().Synced {
					target.OnSynced(asn)
				}
			case op < 9:
				target.Reset()
			case op < 10:
				st, err := twin.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				if st.(*AdaptiveStackState).TxCells != s.txCells {
					restoredBudget++
				}
				if err := s.RestoreState(st); err != nil {
					t.Fatal(err)
				}
			default: // time passes
				asn += sim.ASN(rng.Intn(300))
			}

			ref := newAdaptiveRef(s)
			from := asn + rng.Int63n(50)
			for slot := from; slot < from+2*cfg.SharedFrameLen; slot++ {
				for _, queued := range []bool{true, false} {
					if got, want := s.NextActive(slot, queued), ref.nextActive(slot, queued); got != want {
						t.Fatalf("trial %d step %d (id %d, frames %d/%d/%d, %d cells): NextActive(%d, queued %v) = %d, reference %d",
							trial, step, id, cfg.EBFrameLen, cfg.SharedFrameLen, cfg.DataFrameLen, s.txCells, slot, queued, got, want)
					}
				}
				got := s.Assignment(slot)
				ref = newAdaptiveRef(s)
				if want := ref.assignment(slot); got != want {
					t.Fatalf("trial %d step %d (id %d, frames %d/%d/%d, %d cells): Assignment(%d) = %+v, reference %+v",
						trial, step, id, cfg.EBFrameLen, cfg.SharedFrameLen, cfg.DataFrameLen, s.txCells, slot, got, want)
				}
				if s.Router().Parent() != 0 {
					parented++
					budgets[s.txCells] = true
				}
			}
		}
	}
	for k := 1; k <= 4; k++ {
		if !budgets[k] {
			t.Fatalf("no parented slot with a budget of %d cells (%v)", k, budgets)
		}
	}
	if parented == 0 || restoredBudget == 0 {
		t.Fatalf("%d parented slots, %d restores changing the budget: a case is never exercised", parented, restoredBudget)
	}
}

// TestNextActiveExactSDN: a configured relay with children and a control
// frame queued, and the controller with its four receive cells. The queued
// frame's backoff is the one declared exception: its cell is reported while
// the frame may not go out yet. The frames' priorities hold where cells
// coincide, and over random states Assignment and NextActive answer like
// the reference the stack was once combined from (refSDN), and NextActive
// like the every-candidate loop it replaced.
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
	if a := relay.Assignment(at); a.Role != mac.RoleSleep {
		t.Fatalf("Assignment(%d) = %+v: the backed-off queue head's cell must sleep", at, a)
	}
	for _, queued := range []bool{true, false} {
		if got := relay.NextActive(at, queued); got != at {
			t.Fatalf("NextActive(%d, queued %v) = %d: the backed-off queue head's cell must still wake the node", at, queued, got)
		}
	}

	ctrl, err := NewSDNStack(1, true, 1, 20, []topology.NodeID{1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.nextMaintain = parked
	mactest.RequireNextActiveExact(t, "sdn controller", ctrl, 0, span)

	// The highest-priority frame wins a slot two of them claim. Relay 7
	// (roster 20) beacons at offset 6, which discovery would listen in; its
	// control receive cell and its data cell coincide every 53*151 slots,
	// and its data cell falls on discovery offsets.
	relay.ctrlQ = nil
	first := func(ok func(asn sim.ASN) bool) sim.ASN {
		asn := sim.ASN(0)
		for !ok(asn) {
			asn++
		}
		return asn
	}
	ownEB := first(func(asn sim.ASN) bool { return asn%cfg.EBFrameLen == 6 })
	if a := relay.Assignment(ownEB); a.Role != mac.RoleTxEB {
		t.Fatalf("own beacon slot %d inside the discovery offsets: %+v, want TxEB", ownEB, a)
	}
	ctrlData := first(func(asn sim.ASN) bool {
		return asn%cfg.CtrlFrameLen == relay.ctrlRx[0] && asn%cfg.DataFrameLen == relay.ownData &&
			asn%cfg.EBFrameLen >= 20
	})
	if a := relay.Assignment(ctrlData); a.Role != mac.RoleShared || a.ChannelOffset != sdnCtrlLane(7) {
		t.Fatalf("slot %d, control and data cell at once: %+v, want Shared on lane %d", ctrlData, a, sdnCtrlLane(7))
	}
	dataDisc := first(func(asn sim.ASN) bool {
		eb := asn % cfg.EBFrameLen
		return asn%cfg.DataFrameLen == relay.ownData && eb < 20 && eb != 6 && eb != 2 &&
			asn%cfg.CtrlFrameLen != relay.ctrlRx[0]
	})
	if a := relay.Assignment(dataDisc); a.Role != mac.RoleTxData || a.ChannelOffset != sdnDataLane(7) {
		t.Fatalf("slot %d, data cell on a discovery offset: %+v, want TxData on lane %d", dataDisc, a, sdnDataLane(7))
	}

	requireSDNMatchesReference(t)
}

// refSDN is the sdn stack's schedule as it was combined before it was
// written out: the beacon, control, data and discovery slotframes by
// priority, and the lanes fixed up afterwards — a control cell on the
// queue head's target's lane when it is that cell, on the node's own
// otherwise. It reads the stack's state and changes none of it.
func refSDN(s *SDNStack, asn sim.ASN) mac.Assignment {
	cfg := s.cfg
	ownEB := int64(s.id-1) % cfg.EBFrameLen
	a := combine(asn,
		refFrame{cfg.EBFrameLen, ebChannelOffset, func(off int64) (mac.SlotRole, int) {
			if off == ownEB {
				return mac.RoleTxEB, 0
			}
			if ts := s.timeSource(); ts != 0 && off == int64(ts-1)%cfg.EBFrameLen {
				return mac.RoleRxEB, 0
			}
			return sleepRole()
		}},
		refFrame{cfg.CtrlFrameLen, sdnCtrlChannelBase, func(off int64) (mac.SlotRole, int) {
			if e := s.ctrlHead(asn); e != nil && off == s.ctrlCellTo(e.frame.Dst) {
				return mac.RoleShared, 0
			}
			cells := int64(1)
			if s.controller() {
				cells = int64(cfg.ControllerCells)
			}
			for j := int64(0); j < cells; j++ {
				if off == (sdnCell(s.id, cfg.CtrlFrameLen)+j*17)%cfg.CtrlFrameLen {
					return mac.RoleShared, 0
				}
			}
			return sleepRole()
		}},
		refFrame{cfg.DataFrameLen, sdnDataChannelBase, func(off int64) (mac.SlotRole, int) {
			if s.parent != 0 && off == sdnCell(s.id, cfg.DataFrameLen) {
				return mac.RoleTxData, 1
			}
			if _, ok := s.childCells.At(off, nil); ok {
				return mac.RoleRxData, 0
			}
			return sleepRole()
		}},
		refFrame{cfg.EBFrameLen, ebChannelOffset, func(off int64) (mac.SlotRole, int) {
			if off < int64(s.roster) && off != ownEB {
				return mac.RoleRxEB, 0
			}
			return sleepRole()
		}},
	)
	switch a.Role {
	case mac.RoleShared:
		if e := s.ctrlHead(asn); e != nil && asn%cfg.CtrlFrameLen == s.ctrlCellTo(e.frame.Dst) {
			a.ChannelOffset = sdnCtrlLane(e.frame.Dst)
		} else {
			a.ChannelOffset = sdnCtrlLane(s.id)
		}
	case mac.RoleTxData:
		a.ChannelOffset = sdnDataLane(s.id)
	case mac.RoleRxData:
		c, _ := s.childCells.At(asn%cfg.DataFrameLen, nil)
		a.ChannelOffset = sdnDataLane(c)
	}
	return a
}

// refSDNNextActive finds by brute force the first slot at or after `after`
// where refSDN is not sleep — nor, with nothing queued, the own data cell —,
// the queue head's cell comes round (backed off or not: the declared
// exception), or a timer is due — the maintenance tick, and the recompute
// deadline on a synchronised controller.
func refSDNNextActive(s *SDNStack, after sim.ASN, queued bool) sim.ASN {
	due := max(s.nextMaintain, after)
	if s.controller() && s.synced {
		due = min(due, max(s.nextRecompute, after))
	}
	for asn := after; asn < due; asn++ {
		if role := refSDN(s, asn).Role; role != mac.RoleSleep && (queued || role != mac.RoleTxData) ||
			len(s.ctrlQ) > 0 && asn%s.cfg.CtrlFrameLen == s.ctrlCellTo(s.ctrlQ[0].frame.Dst) {
			return asn
		}
	}
	return due
}

// requireSDNMatchesReference drives sdn stacks through random states —
// short frames so that cells of different frames and children's cells
// coincide, the controller and relays, a roster below, at and above the
// beacon frame, time sources from the uplink or the configured parent,
// queue heads inside and past their backoff, synchronisation, timers due
// within the walk — and requires, at every slot walked, NextActive and
// Assignment to answer like the reference.
// sdnNextActiveEveryCandidate is NextActive as written before it tested the
// own data offset first: the full cellAt for every candidate slot.
func sdnNextActiveEveryCandidate(s *SDNStack, after sim.ASN, queued bool) sim.ASN {
	var head *sdnCtrlEntry
	if len(s.ctrlQ) > 0 {
		head = &s.ctrlQ[0]
	}
	w := s.nextCell(after, queued)
	for !queued && s.cellAt(w, head).Role == mac.RoleTxData {
		w = s.nextCell(w+1, queued)
	}
	if s.controller() && s.synced {
		w = min(w, max(s.nextRecompute, after))
	}
	return min(w, max(s.nextMaintain, after))
}

func requireSDNMatchesReference(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var controllers, relays, backedOff int
	var rosters [3]int
	for trial := 0; trial < 150; trial++ {
		cfg := DefaultSDNConfig()
		for {
			cfg.EBFrameLen = 2 + rng.Int63n(50)
			cfg.CtrlFrameLen = 2 + rng.Int63n(30)
			cfg.DataFrameLen = 1 + rng.Int63n(40)
			cfg.ControllerCells = 1 + rng.Intn(4)
			if cfg.Validate() == nil {
				break
			}
		}
		eb := int(cfg.EBFrameLen)
		kind := rng.Intn(3)
		roster := []int{1 + rng.Intn(eb-1), eb, eb + 1 + rng.Intn(10)}[kind]
		rosters[kind]++
		pick := func() topology.NodeID { return topology.NodeID(1 + rng.Intn(roster+5)) }
		id, ctrlID := pick(), pick()
		if rng.Intn(3) == 0 {
			ctrlID = id
		}
		s, err := NewSDNStack(id, id == ctrlID, ctrlID, roster, []topology.NodeID{ctrlID}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.controller() {
			controllers++
		} else {
			relays++
		}

		asn := sim.ASN(0)
		for step := 0; step < 12; step++ {
			asn += sim.ASN(rng.Intn(1000))
			s.uplink, s.parent = 0, 0
			if rng.Intn(3) > 0 {
				s.uplink = pick()
			}
			if rng.Intn(2) == 0 {
				s.parent = pick()
			}
			s.children = nil
			for n := rng.Intn(5); n > 0; n-- {
				if c := pick(); !slices.Contains(s.children, c) {
					s.children = append(s.children, c)
				}
			}
			slices.Sort(s.children)
			s.rebuildChildCells()
			s.ctrlQ = nil
			for n := rng.Intn(3); n > 0; n-- {
				dst := pick()
				if rng.Intn(3) == 0 {
					dst = ctrlID
				}
				s.ctrlQ = append(s.ctrlQ, sdnCtrlEntry{
					frame:     &sim.Frame{Kind: sim.KindReport, Src: id, Dst: dst},
					notBefore: asn + rng.Int63n(3*cfg.CtrlFrameLen) - cfg.CtrlFrameLen,
				})
			}
			s.synced = rng.Intn(2) == 0
			s.nextMaintain, s.nextRecompute = parked, parked
			if rng.Intn(2) == 0 {
				s.nextMaintain = asn + rng.Int63n(200)
			}
			if rng.Intn(2) == 0 {
				s.nextRecompute = asn + rng.Int63n(200)
			}

			for slot := asn; slot < asn+2*cfg.EBFrameLen; slot++ {
				for _, queued := range []bool{true, false} {
					if got, want := s.NextActive(slot, queued), refSDNNextActive(s, slot, queued); got != want {
						t.Fatalf("trial %d step %d (id %d, controller %d, roster %d, frames %d/%d/%d): NextActive(%d, queued %v) = %d, reference %d",
							trial, step, id, ctrlID, roster, cfg.EBFrameLen, cfg.CtrlFrameLen, cfg.DataFrameLen, slot, queued, got, want)
					}
					if got, want := s.NextActive(slot, queued), sdnNextActiveEveryCandidate(s, slot, queued); got != want {
						t.Fatalf("trial %d step %d: NextActive(%d, queued %v) = %d, the every-candidate loop %d",
							trial, step, slot, queued, got, want)
					}
				}
				if len(s.ctrlQ) > 0 && slot < s.ctrlQ[0].notBefore &&
					slot%cfg.CtrlFrameLen == s.ctrlCellTo(s.ctrlQ[0].frame.Dst) {
					backedOff++
				}
				if got, want := s.Assignment(slot), refSDN(s, slot); got != want {
					t.Fatalf("trial %d step %d (id %d, controller %d, roster %d, frames %d/%d/%d): Assignment(%d) = %+v, reference %+v",
						trial, step, id, ctrlID, roster, cfg.EBFrameLen, cfg.CtrlFrameLen, cfg.DataFrameLen, slot, got, want)
				}
			}
		}
	}
	if controllers == 0 || relays == 0 || backedOff == 0 || slices.Contains(rosters[:], 0) {
		t.Fatalf("%d controllers, %d relays, %d backed-off head cells, rosters below/at/above the beacon frame %v: a case is never exercised",
			controllers, relays, backedOff, rosters)
	}
}
