package rpl

import (
	"reflect"
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
	var n *Node
	n, err := NewNode(9, false, cfg, 9, func(offset int64, _ sim.ASN) (mac.SlotRole, int) {
		if n.Router().Parent() != 0 && offset == testTxOffset {
			return mac.RoleTxData, 1
		}
		if n.ListensAt(offset) {
			return mac.RoleRxData, 0
		}
		return mac.RoleSleep, 0
	})
	if err != nil {
		t.Fatal(err)
	}
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
// timer not started, the control plane's NextActive (its own beacon slot,
// the parent's, the shared slot, the listen cells) names exactly the first
// slot whose Assignment is not sleep, once the test policy's transmit cell is
// added the way a stack adds its own.
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
	walk := withTxCell{n}
	span := 2 * cfg.EBFrameLen
	mactest.RequireNextActiveExact(t, "routed", walk, 0, span)
	mactest.RequireNextActiveExact(t, "routed", walk, 13*cfg.EBFrameLen*cfg.UnicastFrameLen+5, span)

	n.Reset()
	n.Maintain(0)
	mactest.RequireNextActiveExact(t, "orphan", n, 0, span)
}

// withTxCell is the test policy's NextActive: the control plane's, and the
// transmit cell.
type withTxCell struct{ *Node }

func (w withTxCell) NextActive(after sim.ASN) sim.ASN {
	return min(w.Node.NextActive(after), mac.NextOffset(after, w.cfg.UnicastFrameLen, testTxOffset))
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
	root, err := NewNode(1, true, testConfig(), 1, nil)
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
