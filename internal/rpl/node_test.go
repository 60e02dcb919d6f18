package rpl

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/mac/mactest"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
	"github.com/digs-net/digs/internal/wire"
)

// century parks the maintenance tick: after the first one the next is out
// of every test's reach.
const century = 100 * 365 * 24 * time.Hour

func testConfig() Config {
	return Config{
		EBFrameLen: 557, SharedFrameLen: 47, UnicastFrameLen: 151,
		Trickle:         trickle.Config{IminSlots: 100, Doublings: 7, K: 6},
		NeighborTimeout: 5 * time.Minute,
		MaintainEvery:   5 * time.Second,
		RankGranularity: 4,
	}
}

// testTxOffset is the one transmit cell of the test policy.
const testTxOffset = 33

// newTestNode builds node 9 under a minimal cell policy: one transmit cell
// once parented, and the listen cells.
func newTestNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := NewNode(9, false, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	n.SetTxCells(testTxOffset)
	return n
}

func dioFrame(from topology.NodeID, d DIO, option ...byte) *sim.Frame {
	return &sim.Frame{Kind: sim.KindJoinIn, Src: from, Dst: topology.Broadcast,
		Payload: append(d.Marshal(), option...)}
}

// routed gives the node parent 4 and potential children 12 and 20, and runs
// the maintenance tick that places a listen cell for each.
func routed(t *testing.T, n *Node) {
	t.Helper()
	n.OnFrame(0, dioFrame(4, DIO{Rank: 4, PathETX: 3}), -60, 0)
	if n.Router().Parent() != 4 {
		t.Fatal("no parent selected")
	}
	own, _ := n.Router().Advertisement()
	for _, child := range []topology.NodeID{12, 20} {
		n.OnFrame(0, dioFrame(child, DIO{Rank: own.Rank + 8, PathETX: own.PathETX + 2}), -70, 0)
	}
	if !n.Maintain(0) {
		t.Fatal("the first maintenance tick is not due at slot 0")
	}
	for _, c := range n.ResetChildCells() {
		n.Listen(int64(c), c)
	}
}

// TestNodeNextActiveExact: with the maintenance tick parked and the Trickle
// timer not started, NextActive (the node's own beacon slot, the parent's,
// the shared slot, the transmit cell, the listen cells) names exactly the
// first slot whose Assignment is not sleep. Then, over random states, both
// answer like the reference the node was once built on (refAssignment,
// refNextActive).
func TestNodeNextActiveExact(t *testing.T) {
	cfg := testConfig()
	cfg.MaintainEvery = century
	n := newTestNode(t, cfg)
	routed(t, n)
	if a := n.Assignment(12); a.Role != mac.RoleRxData || a.ChannelOffset != unicastLane(12) {
		t.Fatalf("child 12's cell: %+v, want RxData on lane %d", a, unicastLane(12))
	}
	if a := n.Assignment(testTxOffset); a.Role != mac.RoleTxData || a.ChannelOffset != unicastLane(9) {
		t.Fatalf("own cell: %+v, want TxData on lane %d", a, unicastLane(9))
	}
	span := 2 * cfg.EBFrameLen
	mactest.RequireNextActiveExact(t, "routed", n, 0, span)
	mactest.RequireNextActiveExact(t, "routed", n, 13*cfg.EBFrameLen*cfg.UnicastFrameLen+5, span)

	n.Reset()
	n.Maintain(0)
	mactest.RequireNextActiveExact(t, "orphan", n, 0, span)

	requireNodeMatchesReference(t)
}

// refFrame is one slotframe of a reference schedule, its role a function
// of the slot's offset in the frame.
type refFrame struct {
	length  int64
	channel uint8
	role    func(offset int64) (mac.SlotRole, int)
}

// combine is the priority combination the node writes out: the first frame,
// in priority order, that does not sleep in the slot wins it on its lane.
func combine(asn sim.ASN, frames ...refFrame) mac.Assignment {
	for _, f := range frames {
		if role, attempt := f.role(asn % f.length); role != mac.RoleSleep {
			return mac.Assignment{Role: role, ChannelOffset: f.channel, Attempt: attempt}
		}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

// refAssignment is the node's schedule as it was built before it was
// written out: the beacon, shared and unicast slotframes combined by
// priority, the unicast one the policy's role — transmit in tx once
// parented, listen wherever a child's cell sits — and the unicast lanes
// fixed up afterwards. It reads the node's state and changes none of it.
func refAssignment(n *Node, tx []int64, asn sim.ASN) mac.Assignment {
	sleep := func() (mac.SlotRole, int) { return mac.RoleSleep, 0 }
	a := combine(asn,
		refFrame{n.cfg.EBFrameLen, ebChannelOffset, func(off int64) (mac.SlotRole, int) {
			if off == int64(n.id-1)%n.cfg.EBFrameLen {
				return mac.RoleTxEB, 0
			}
			if p := n.router.Parent(); p != 0 && off == int64(p-1)%n.cfg.EBFrameLen {
				return mac.RoleRxEB, 0
			}
			return sleep()
		}},
		refFrame{n.cfg.SharedFrameLen, sharedChannelOffset, func(off int64) (mac.SlotRole, int) {
			if off == 0 {
				return mac.RoleShared, 0
			}
			return sleep()
		}},
		refFrame{n.cfg.UnicastFrameLen, unicastChannelOffset, func(off int64) (mac.SlotRole, int) {
			if n.router.Parent() != 0 && slices.Contains(tx, off) {
				return mac.RoleTxData, 1
			}
			if _, ok := n.childCells.At(off, nil); ok {
				return mac.RoleRxData, 0
			}
			return sleep()
		}},
	)
	switch a.Role {
	case mac.RoleTxData:
		a.ChannelOffset = unicastLane(n.id)
	case mac.RoleRxData:
		c, _ := n.childCells.At(asn%n.cfg.UnicastFrameLen, nil)
		a.ChannelOffset = unicastLane(c)
	}
	return a
}

// refNextActive finds by brute force the first slot at or after `after`
// where the reference schedule is not sleep — nor, with nothing queued, an
// own transmit cell — or a timer is due: the maintenance tick, and the
// Trickle timer's next event once synchronised.
func refNextActive(n *Node, tx []int64, after sim.ASN, queued bool) sim.ASN {
	due := max(n.nextMaintain, after)
	if n.synced {
		due = min(due, max(n.tr.NextEvent(after), after))
	}
	for asn := after; asn < due; asn++ {
		if role := refAssignment(n, tx, asn).Role; role != mac.RoleSleep && (queued || role != mac.RoleTxData) {
			return asn
		}
	}
	return due
}

// requireNodeMatchesReference drives nodes under the two stacks' policies —
// Orchestra's one hashed cell, adaptive's 1..4 strided cells, each placed
// for the children too — through random states: frames short enough that
// beacon, shared and unicast offsets coincide and children collide on a
// cell, parents adopted, switched and lost, children coming and going,
// synchronisation, maintenance ticks, Reset, and restores of a twin's
// state. At random slots Assignment must equal the reference and NextActive
// the brute-force first active slot.
func requireNodeMatchesReference(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	var parented, orphaned, collided, restores int
	for trial := 0; trial < 120; trial++ {
		cfg := testConfig()
		cfg.EBFrameLen = 2 + rng.Int63n(40)
		cfg.SharedFrameLen = 2 + rng.Int63n(20)
		cfg.UnicastFrameLen = 1 + rng.Int63n(30)
		cfg.MaintainEvery = time.Duration(1+rng.Intn(4)) * time.Second
		cfg.NeighborTimeout = time.Duration(2+rng.Intn(6)) * time.Second
		id := topology.NodeID(2 + rng.Intn(60))
		cellsOf := func(c topology.NodeID) []int64 { // Orchestra's policy
			return []int64{(int64(c) * 37) % cfg.UnicastFrameLen}
		}
		if k := rng.Intn(5); k > 0 { // adaptive's, at k cells
			cellsOf = func(c topology.NodeID) []int64 {
				var out []int64
				for j := 0; j < k; j++ {
					out = append(out, (int64(c)*37+int64(j)*53)%cfg.UnicastFrameLen)
				}
				return out
			}
		}
		build := func(seed int64) *Node {
			n, err := NewNode(id, false, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			n.SetTxCells(cellsOf(id)...)
			return n
		}
		n, twin := build(int64(trial)), build(int64(trial)+1000)
		tx := cellsOf(id)

		asn := sim.ASN(0)
		for step := 0; step < 30; step++ {
			target := n
			if rng.Intn(3) == 0 {
				target = twin
			}
			switch op := rng.Intn(10); {
			case op < 4: // an advertisement, from above or below
				from := topology.NodeID(1 + rng.Intn(60))
				if from != id {
					d := DIO{Rank: uint16(1 + rng.Intn(40)), PathETX: 4 * rng.Float64()}
					target.OnFrame(asn, dioFrame(from, d), -60-30*rng.Float64(), 0)
				}
			case op < 5: // a lost transmission to the parent
				if p := target.Router().Parent(); p != 0 {
					target.OnTxResult(asn, nil, p, false)
				}
			case op < 6:
				if !target.synced {
					target.OnSynced(asn)
				}
			case op < 7:
				target.Reset()
			case op < 8:
				n.RestoreState(twin.CaptureState())
				restores++
			default: // time passes
				asn += sim.ASN(rng.Intn(300))
			}

			// Walk a stretch the way a stack does: the tick places the listen
			// cells, then Assignment; NextActive is asked first at each slot.
			from := asn + rng.Int63n(50)
			for slot := from; slot < from+2*cfg.SharedFrameLen; slot++ {
				for _, queued := range []bool{true, false} {
					if got, want := n.NextActive(slot, queued), refNextActive(n, tx, slot, queued); got != want {
						t.Fatalf("trial %d step %d (id %d, frames %d/%d/%d, cells %v): NextActive(%d, queued %v) = %d, reference %d",
							trial, step, id, cfg.EBFrameLen, cfg.SharedFrameLen, cfg.UnicastFrameLen, tx, slot, queued, got, want)
					}
				}
				if n.Maintain(slot) {
					for _, c := range n.ResetChildCells() {
						for _, off := range cellsOf(c) {
							if _, taken := n.childCells.At(off, nil); taken {
								collided++
							}
							n.Listen(off, c)
						}
					}
				}
				if got, want := n.Assignment(slot), refAssignment(n, tx, slot); got != want {
					t.Fatalf("trial %d step %d (id %d, frames %d/%d/%d, cells %v): Assignment(%d) = %+v, reference %+v",
						trial, step, id, cfg.EBFrameLen, cfg.SharedFrameLen, cfg.UnicastFrameLen, tx, slot, got, want)
				}
				if n.Router().Parent() != 0 {
					parented++
				} else {
					orphaned++
				}
			}
		}
	}
	if parented == 0 || orphaned == 0 || collided == 0 || restores == 0 {
		t.Fatalf("%d parented and %d orphaned slots, %d colliding child cells, %d restores: a case is never exercised",
			parented, orphaned, collided, restores)
	}
}

// TestTrickleResetsOnlyOnceSynced: route changes collapse the Trickle
// interval, but a node that has not synchronised has no running timer and
// must not start one by resetting it.
func TestTrickleResetsOnlyOnceSynced(t *testing.T) {
	n := newTestNode(t, testConfig())
	routed(t, n) // parent acquired, tick run: both would reset a synced node's timer
	n.Readvertise(5)
	if n.tr.Started() {
		t.Fatal("an unsynchronised node started its Trickle timer")
	}

	n.OnSynced(100)
	imin := testConfig().Trickle.IminSlots
	if !n.tr.Started() || n.tr.Interval() != imin {
		t.Fatalf("after sync: started %v, interval %d", n.tr.Started(), n.tr.Interval())
	}
	for asn := sim.ASN(100); asn < 1000; asn++ {
		n.Assignment(asn)
	}
	if n.tr.Interval() <= imin {
		t.Fatalf("interval %d never grew", n.tr.Interval())
	}
	n.OnFrame(1000, dioFrame(5, DIO{Rank: 2, PathETX: 0}), -60, 0) // a much better parent
	if n.Router().Parent() != 5 {
		t.Fatalf("parent %d, want 5", n.Router().Parent())
	}
	if n.tr.Interval() != imin || n.tr.IntervalStart() != 1000 {
		t.Fatalf("parent change left the interval at %d from slot %d", n.tr.Interval(), n.tr.IntervalStart())
	}
}

// TestSolicitRateLimit: a synchronised, parentless node sends DIS frames no
// sooner than 500 slots after synchronising and at least 1000 slots apart,
// and none once it has joined.
func TestSolicitRateLimit(t *testing.T) {
	n := newTestNode(t, testConfig())
	if f, _ := n.SharedFrame(50); f != nil {
		t.Fatalf("an unsynchronised node sent %+v", f)
	}
	n.OnSynced(100)
	var sent []sim.ASN
	for asn := sim.ASN(100); asn < 10000; asn++ {
		if f, needAck := n.SharedFrame(asn); f != nil {
			if f.Kind != sim.KindSolicit || f.Src != 9 || f.Dst != topology.Broadcast || needAck {
				t.Fatalf("slot %d: %+v (ack %v), want a broadcast DIS", asn, f, needAck)
			}
			sent = append(sent, asn)
		}
	}
	if len(sent) < 6 || sent[0] < 600 || sent[0] >= 1100 {
		t.Fatalf("DIS at %v: want the first 500-999 slots after sync, then one per 1000-1499", sent)
	}
	for i := 1; i < len(sent); i++ {
		if gap := sent[i] - sent[i-1]; gap < 1000 || gap >= 1500 {
			t.Fatalf("DIS at %v: gap %d", sent, gap)
		}
	}

	n.OnFrame(10000, dioFrame(4, DIO{Rank: 4, PathETX: 1}), -60, 0)
	for asn := sim.ASN(10000); asn < 13000; asn++ {
		if f, _ := n.SharedFrame(asn); f != nil && f.Kind == sim.KindSolicit {
			t.Fatalf("slot %d: a joined node solicits", asn)
		}
	}
}

// TestDIOOption: the stack's option bytes ride behind the advertisement in
// beacons and DIOs alike, and only a payload of exactly the expected length
// is taken for a DIO.
func TestDIOOption(t *testing.T) {
	root, err := NewNode(1, true, testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	adv, _ := root.Router().Advertisement()
	if got, want := root.DIOPayload(7, 8), append(adv.Marshal(), 7, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("payload % x, want % x", got, want)
	}
	n := newTestNode(t, testConfig())
	if n.DIOPayload(7) != nil {
		t.Fatal("a node outside the DODAG advertises")
	}
	for _, f := range []*sim.Frame{dioFrame(1, adv), dioFrame(1, adv, 7, 8, 9)} {
		if opt := n.OnFrame(5, f, -60, 2); opt != nil || n.Router().Parent() != 0 {
			t.Fatalf("a %d-byte payload was taken for a DIO with a 2-byte option", len(f.Payload))
		}
	}
	if opt := n.OnFrame(5, dioFrame(1, adv, 7, 8), -60, 2); !reflect.DeepEqual(opt, []byte{7, 8}) || n.Router().Parent() != 1 {
		t.Fatalf("option % x, parent %d", opt, n.Router().Parent())
	}
}

// TestNodeResetKeepsRouteHook: a reboot with state loss returns the node to
// its just-built state — no parent, no listen cells, timers stopped — but
// keeps reporting route changes through the hook installed before it.
func TestNodeResetKeepsRouteHook(t *testing.T) {
	n := newTestNode(t, testConfig())
	changes := 0
	n.SetRouteHook(func(sim.ASN, topology.NodeID, topology.NodeID) { changes++ })
	n.OnSynced(0)
	routed(t, n)
	if changes != 1 {
		t.Fatalf("%d route changes reported, want 1", changes)
	}
	fresh := newTestNode(t, testConfig()).CaptureState()
	n.Reset()
	st := n.CaptureState()
	fresh.RNGDraws = st.RNGDraws // the generator keeps its position across a reboot
	if !reflect.DeepEqual(st, fresh) {
		t.Fatalf("after reset:\n got %+v\nwant %+v", st, fresh)
	}
	n.OnFrame(50, dioFrame(4, DIO{Rank: 4, PathETX: 3}), -60, 0)
	if changes != 2 {
		t.Fatal("the route hook did not survive the reset")
	}
}

// TestNodeStateRoundTrip: a captured state survives its wire form, and a
// freshly built node restored from it continues draw for draw.
func TestNodeStateRoundTrip(t *testing.T) {
	n := newTestNode(t, testConfig())
	n.OnSynced(0)
	routed(t, n)
	for asn := sim.ASN(0); asn < 400; asn++ {
		n.Assignment(asn)
		n.SharedFrame(asn)
	}
	st := n.CaptureState()
	if !st.Synced || !st.HasChildCells || len(st.ChildCells) != 2 || st.RNGDraws == 0 || !st.Routed() {
		t.Fatalf("captured state misses what the run set up: %+v", st)
	}

	var w wire.Writer
	st.CodeControl(wire.Encoder(&w))
	st.CodeChildCells(wire.Encoder(&w))
	r := wire.NewReader(w.Buf)
	var back NodeState
	back.CodeControl(wire.Decoder(r))
	back.CodeChildCells(wire.Decoder(r))
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Remaining())
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("wire round trip:\n got %+v\nwant %+v", back, st)
	}

	resumed := newTestNode(t, testConfig())
	resumed.RestoreState(back)
	if got := resumed.CaptureState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restore:\n got %+v\nwant %+v", got, st)
	}
	for asn := sim.ASN(400); asn < 3000; asn++ {
		if a, b := n.Assignment(asn), resumed.Assignment(asn); a != b {
			t.Fatalf("slot %d: %+v vs %+v", asn, a, b)
		}
		fa, _ := n.SharedFrame(asn)
		fb, _ := resumed.SharedFrame(asn)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("slot %d: shared frame %+v vs %+v", asn, fa, fb)
		}
	}
	if a, b := n.CaptureState(), resumed.CaptureState(); !reflect.DeepEqual(a, b) {
		t.Fatalf("after 2600 more slots:\n got %+v\nwant %+v", b, a)
	}
}
