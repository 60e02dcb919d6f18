package sim

import (
	"reflect"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// pairTopology builds a tiny N-node line with 5 m spacing at full power,
// where adjacent nodes have perfect links.
func pairTopology(t *testing.T, n int) *topology.Topology {
	t.Helper()
	topo := &topology.Topology{
		Name:       "line",
		NumAPs:     1,
		TxPowerDBm: 0,
	}
	topo.Nodes = append(topo.Nodes, topology.Node{})
	for i := 1; i <= n; i++ {
		topo.Nodes = append(topo.Nodes, topology.Node{
			ID: topology.NodeID(i), X: float64(i) * 5, IsAP: i == 1,
		})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// scriptDevice is a programmable test device.
type scriptDevice struct {
	id      topology.NodeID
	plan    func(asn ASN) RadioOp
	reports []SlotReport
}

func (d *scriptDevice) ID() topology.NodeID { return d.id }
func (d *scriptDevice) Plan(asn ASN) RadioOp {
	if d.plan == nil {
		return Sleep()
	}
	return d.plan(asn)
}
func (d *scriptDevice) EndSlot(_ ASN, rep SlotReport) { d.reports = append(d.reports, rep) }

func txPlan(f *Frame, ch phy.Channel, ack bool) func(ASN) RadioOp {
	return func(ASN) RadioOp {
		return RadioOp{Kind: OpTx, Channel: ch, Frame: f, NeedAck: ack}
	}
}

func rxPlan(ch phy.Channel) func(ASN) RadioOp {
	return func(ASN) RadioOp { return RadioOp{Kind: OpRx, Channel: ch} }
}

func TestUnicastDeliveryAndAck(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1, Seq: 7}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, true)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(20)

	acked := 0
	for _, rep := range tx.reports {
		if rep.Acked {
			acked++
		}
	}
	delivered := 0
	for _, rep := range rx.reports {
		if rep.Received != nil {
			if rep.Received.Seq != 7 {
				t.Fatalf("delivered wrong frame: %+v", rep.Received)
			}
			delivered++
		}
	}
	if delivered < 19 {
		t.Fatalf("perfect 5m link delivered %d/20 frames", delivered)
	}
	if acked < 19 {
		t.Fatalf("perfect 5m link acked %d/20 frames", acked)
	}
	// Receiver spent ACK energy; sender waited for ACKs.
	if rx.reports[0].Activity != phy.ActivityRxFrameAck {
		t.Fatalf("receiver activity = %v, want RxFrameAck", rx.reports[0].Activity)
	}
	if tx.reports[0].Activity != phy.ActivityTxAwaitAck {
		t.Fatalf("sender activity = %v, want TxAwaitAck", tx.reports[0].Activity)
	}
}

func TestBroadcastHasNoAck(t *testing.T) {
	topo := pairTopology(t, 3)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindEB, Src: 2, Dst: topology.Broadcast}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx1 := &scriptDevice{id: 1, plan: rxPlan(15)}
	rx3 := &scriptDevice{id: 3, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx1, rx3} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(10)
	for _, rep := range tx.reports {
		if rep.Acked {
			t.Fatal("broadcast frame got an ACK")
		}
	}
	for _, rx := range []*scriptDevice{rx1, rx3} {
		got := 0
		for _, rep := range rx.reports {
			if rep.Received != nil {
				got++
			}
		}
		if got < 9 {
			t.Fatalf("node %d received %d/10 broadcasts", rx.id, got)
		}
	}
}

func TestWrongChannelHearsNothing(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(20)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(10)
	for _, rep := range rx.reports {
		if rep.Received != nil {
			t.Fatal("received a frame on the wrong channel")
		}
		if rep.Activity != phy.ActivityRxIdle {
			t.Fatalf("idle listener activity = %v, want RxIdle", rep.Activity)
		}
	}
}

func TestScanHearsAnyChannel(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindEB, Src: 1, Dst: topology.Broadcast}
	tx := &scriptDevice{id: 1, plan: func(asn ASN) RadioOp {
		return RadioOp{Kind: OpTx, Channel: phy.HopChannel(asn, 3), Frame: frame}
	}}
	rx := &scriptDevice{id: 2, plan: func(ASN) RadioOp { return RadioOp{Kind: OpScan} }}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(10)
	got := 0
	for _, rep := range rx.reports {
		if rep.Received != nil {
			got++
		}
	}
	if got < 9 {
		t.Fatalf("scanner received %d/10 hopped broadcasts", got)
	}
}

func TestCollisionBetweenEqualPowerSenders(t *testing.T) {
	// Nodes 1 and 3 are equidistant from node 2; both transmit to it in
	// the same slot on the same channel. SIR ~ 0 dB so nothing decodes.
	topo := pairTopology(t, 3)
	nw := NewNetwork(topo, 1)
	nw.FastFadingSigmaDB = 0 // exact symmetry: SIR is exactly 0 dB
	f1 := &Frame{Kind: KindData, Src: 1, Dst: 2}
	f3 := &Frame{Kind: KindData, Src: 3, Dst: 2}
	tx1 := &scriptDevice{id: 1, plan: txPlan(f1, 15, false)}
	tx3 := &scriptDevice{id: 3, plan: txPlan(f3, 15, false)}
	rx := &scriptDevice{id: 2, plan: rxPlan(15)}
	for _, d := range []Device{tx1, tx3, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(50)
	delivered, collisions := 0, 0
	for _, rep := range rx.reports {
		if rep.Received != nil {
			delivered++
		}
		if rep.Collision {
			collisions++
		}
	}
	if delivered != 0 {
		t.Fatalf("equal-power collision delivered %d/50 frames; capture should fail", delivered)
	}
	if collisions != 50 {
		t.Fatalf("only %d/50 slots flagged as collisions", collisions)
	}
}

func TestCaptureStrongerFrameWins(t *testing.T) {
	// Node 2 is 5 m from node 1; node 4 is 15 m away. When both transmit,
	// node 2's frame is ~14 dB stronger at node 1 and should capture.
	topo := pairTopology(t, 4)
	nw := NewNetwork(topo, 1)
	fNear := &Frame{Kind: KindData, Src: 2, Dst: 1}
	fFar := &Frame{Kind: KindData, Src: 4, Dst: 1}
	near := &scriptDevice{id: 2, plan: txPlan(fNear, 15, false)}
	far := &scriptDevice{id: 4, plan: txPlan(fFar, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{near, far, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(50)
	nearWins := 0
	for _, rep := range rx.reports {
		if rep.Received != nil && rep.Received.Src == 2 {
			nearWins++
		}
	}
	if nearWins < 35 {
		t.Fatalf("capture effect: near frame decoded %d/50 times, want >= 35", nearWins)
	}
}

func TestFailedNodeIsSilentAndDeaf(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Fail(2)
	nw.Run(10)
	for _, rep := range rx.reports {
		if rep.Received != nil {
			t.Fatal("received a frame from a failed node")
		}
	}
	if len(tx.reports) != 0 {
		t.Fatal("failed node still receives slot reports")
	}
	nw.Restore(2)
	nw.Run(10)
	if len(tx.reports) == 0 {
		t.Fatal("restored node gets no slot reports")
	}
}

func TestScheduledEventsFire(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	var fired []ASN
	nw.At(5, func() { fired = append(fired, 5) })
	nw.At(2, func() { fired = append(fired, 2) })
	nw.At(SlotsFor(100*time.Millisecond), func() { fired = append(fired, 10) })
	// A past-dated event fires at the next slot boundary instead of being
	// dropped (fault plans may script stale relative offsets).
	nw.At(-1, func() { fired = append(fired, nw.ASN()) })
	nw.Run(20)
	if len(fired) != 4 || fired[0] != 0 || fired[1] != 2 || fired[2] != 5 || fired[3] != 10 {
		t.Fatalf("events fired = %v, want [0 2 5 10]", fired)
	}
}

func TestAttachValidation(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	if err := nw.Attach(&scriptDevice{id: 99}); err == nil {
		t.Fatal("attached device outside topology")
	}
	if err := nw.Attach(&scriptDevice{id: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(&scriptDevice{id: 1}); err == nil {
		t.Fatal("attached the same ID twice")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		topo := pairTopology(t, 4)
		nw := NewNetwork(topo, 42)
		frame := &Frame{Kind: KindData, Src: 4, Dst: 3}
		tx := &scriptDevice{id: 4, plan: txPlan(frame, 15, true)}
		rx := &scriptDevice{id: 3, plan: rxPlan(15)}
		other := &scriptDevice{id: 2, plan: rxPlan(15)}
		for _, d := range []Device{tx, rx, other} {
			if err := nw.Attach(d); err != nil {
				t.Fatal(err)
			}
		}
		nw.Run(200)
		var out []int
		for i, rep := range rx.reports {
			if rep.Received != nil {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at delivery %d: slot %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTraceEvents(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	var txEvents, deliverEvents int
	nw.Trace = func(ev TraceEvent) {
		switch ev.Kind {
		case TraceTx:
			txEvents++
		case TraceDeliver:
			deliverEvents++
		}
	}
	nw.Run(10)
	if txEvents != 10 {
		t.Fatalf("traced %d transmissions, want 10", txEvents)
	}
	if deliverEvents < 9 {
		t.Fatalf("traced %d deliveries, want >= 9", deliverEvents)
	}
}

func TestOverheardUnicastIsFiltered(t *testing.T) {
	// Node 3 listens while node 2 unicasts to node 1: node 3 spends RX
	// energy but must not have the frame delivered.
	topo := pairTopology(t, 3)
	nw := NewNetwork(topo, 1)
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	snoop := &scriptDevice{id: 3, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx, snoop} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(10)
	for _, rep := range snoop.reports {
		if rep.Received != nil {
			t.Fatal("snooper had someone else's unicast delivered")
		}
	}
}

func TestSlotsForAndTimeAt(t *testing.T) {
	if got := SlotsFor(time.Second); got != 100 {
		t.Fatalf("SlotsFor(1s) = %d, want 100", got)
	}
	if got := TimeAt(100); got != time.Second {
		t.Fatalf("TimeAt(100) = %v, want 1s", got)
	}
}

func TestRunUntilSemantics(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	if err := nw.Attach(&scriptDevice{id: 1}); err != nil { // awake in every slot
		t.Fatal(err)
	}
	// Predicate true immediately: zero slots run.
	ran, ok := nw.RunUntil(100, func() bool { return true })
	if ran != 0 || !ok {
		t.Fatalf("immediate predicate: ran %d, ok %v", ran, ok)
	}
	// Predicate true after 7 slots.
	ran, ok = nw.RunUntil(100, func() bool { return nw.ASN() >= 7 })
	if ran != 7 || !ok {
		t.Fatalf("delayed predicate: ran %d, ok %v", ran, ok)
	}
	// Budget exhaustion.
	ran, ok = nw.RunUntil(5, func() bool { return false })
	if ran != 5 || ok {
		t.Fatalf("exhausted budget: ran %d, ok %v", ran, ok)
	}
	if nw.Topology() != topo {
		t.Fatal("Topology accessor broken")
	}
	if nw.Failed(999) {
		t.Fatal("out-of-range Failed should be false")
	}

	// All napping: the run jumps to the device's wake at slot 10, so the
	// clock predicate is asked before slot 0, after slot 0 and after slot
	// 10, the slots that ran.
	nw = NewNetwork(topo, 1)
	if err := nw.Attach(&napDevice{id: 1, wake: everyN(10)}); err != nil {
		t.Fatal(err)
	}
	var asked []ASN
	ran, ok = nw.RunUntil(100, func() bool { asked = append(asked, nw.ASN()); return nw.ASN() >= 7 })
	if ran != 11 || !ok || !reflect.DeepEqual(asked, []ASN{0, 1, 11}) {
		t.Fatalf("napping network: ran %d, ok %v, asked at %v; want 11, true, [0 1 11]", ran, ok, asked)
	}
}

func TestInterfererBelowNoiseFloorIgnored(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	nw.AddInterferer(&quietInterferer{})
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(20)
	got := 0
	for _, rep := range rx.reports {
		if rep.Received != nil {
			got++
		}
	}
	if got < 19 {
		t.Fatalf("sub-noise interferer disturbed delivery: %d/20", got)
	}
}

type quietInterferer struct{}

func (quietInterferer) ActiveOn(ASN, phy.Channel) bool     { return true }
func (quietInterferer) PowerAtDBm(topology.NodeID) float64 { return -150 }

func TestStrongInterfererBlocksAcks(t *testing.T) {
	// An interferer audible only at the SENDER corrupts the ACK path: the
	// receiver gets the frame but the sender never learns.
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	nw.AddInterferer(&senderSideInterferer{victim: 2})
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, true)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(30)
	received, acked := 0, 0
	for _, rep := range rx.reports {
		if rep.Received != nil {
			received++
		}
	}
	for _, rep := range tx.reports {
		if rep.Acked {
			acked++
		}
	}
	if received < 25 {
		t.Fatalf("receiver side should be clean: %d/30", received)
	}
	if acked > 5 {
		t.Fatalf("sender-side interference should kill ACKs: %d acked", acked)
	}
}

type senderSideInterferer struct{ victim topology.NodeID }

func (senderSideInterferer) ActiveOn(ASN, phy.Channel) bool { return true }
func (s senderSideInterferer) PowerAtDBm(at topology.NodeID) float64 {
	if at == s.victim {
		return -40
	}
	return -150
}

func TestAttachAfterStartRejected(t *testing.T) {
	topo := pairTopology(t, 3)
	nw := NewNetwork(topo, 1)
	if err := nw.Attach(&scriptDevice{id: 1}); err != nil {
		t.Fatal(err)
	}
	if nw.Started() {
		t.Fatal("network started before the first Step")
	}
	nw.Run(1)
	if !nw.Started() {
		t.Fatal("network not started after a Step")
	}
	if err := nw.Attach(&scriptDevice{id: 2}); err == nil {
		t.Fatal("attached a device after the simulation started")
	}
}

// TestWideScanDeterministicOrder regresses the map-iteration bug: a
// wide-band scan gathers transmitters across channels, and the shared
// RNG's fading draws must be consumed in a fixed order so identical seeds
// give identical traces. With the old byChannel map this reordered
// run-to-run whenever two transmitters used different channels.
func TestWideScanDeterministicOrder(t *testing.T) {
	run := func() []float64 {
		topo := pairTopology(t, 5)
		nw := NewNetwork(topo, 99)
		// Four concurrent broadcasters on four different channels.
		for i, ch := range []phy.Channel{26, 11, 19, 14} {
			id := topology.NodeID(i + 1)
			f := &Frame{Kind: KindEB, Src: id, Dst: topology.Broadcast}
			if err := nw.Attach(&scriptDevice{id: id, plan: txPlan(f, ch, false)}); err != nil {
				t.Fatal(err)
			}
		}
		scanner := &scriptDevice{id: 5, plan: func(ASN) RadioOp { return RadioOp{Kind: OpScan} }}
		if err := nw.Attach(scanner); err != nil {
			t.Fatal(err)
		}
		nw.Run(100)
		var rssis []float64
		for _, rep := range scanner.reports {
			if rep.Received != nil {
				rssis = append(rssis, rep.RSSI, float64(rep.Received.Src))
			}
		}
		return rssis
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("wide-scan traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wide-scan traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("scanner heard nothing")
	}
}

// quietDevice plans without recording reports, so the slot loop's
// allocation behaviour can be measured in isolation.
type quietDevice struct {
	id   topology.NodeID
	plan func(asn ASN) RadioOp
}

func (d *quietDevice) ID() topology.NodeID     { return d.id }
func (d *quietDevice) Plan(asn ASN) RadioOp    { return d.plan(asn) }
func (d *quietDevice) EndSlot(ASN, SlotReport) {}

// TestSlotLoopZeroAllocs pins the steady-state slot loop at zero heap
// allocations per slot: transmissions, receptions, ACKs, a wide-band
// scanner and an active interferer all resolve out of reused scratch
// buffers once the first slots have warmed them up.
func TestSlotLoopZeroAllocs(t *testing.T) {
	topo := pairTopology(t, 4)
	nw := NewNetwork(topo, 7)
	nw.AddInterferer(&quietInterferer{})
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1}
	eb := &Frame{Kind: KindEB, Src: 3, Dst: topology.Broadcast}
	devs := []*quietDevice{
		{id: 1, plan: func(ASN) RadioOp { return RadioOp{Kind: OpRx, Channel: 15} }},
		{id: 2, plan: func(ASN) RadioOp {
			return RadioOp{Kind: OpTx, Channel: 15, Frame: frame, NeedAck: true}
		}},
		{id: 3, plan: func(asn ASN) RadioOp {
			return RadioOp{Kind: OpTx, Channel: phy.HopChannel(asn, 2), Frame: eb}
		}},
		{id: 4, plan: func(ASN) RadioOp { return RadioOp{Kind: OpScan} }},
	}
	for _, d := range devs {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(200) // warm the scratch buffers past any growth
	allocs := testing.AllocsPerRun(300, func() { nw.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state slot loop allocates %.1f objects/slot, want 0", allocs)
	}
}

// TestEventQueueOrderAndChaining covers the heap replacement for the old
// per-slot event map: interleaved scheduling, same-slot FIFO order, and
// events scheduled from inside an event for the same slot.
func TestEventQueueOrderAndChaining(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	var fired []int
	nw.At(7, func() { fired = append(fired, 71) })
	nw.At(3, func() { fired = append(fired, 3) })
	nw.At(7, func() { fired = append(fired, 72) })
	nw.At(5, func() {
		fired = append(fired, 5)
		// Chain an event for the same slot from inside an event: it must
		// run within this slot, not be lost.
		nw.At(5, func() { fired = append(fired, 55) })
	})
	nw.Run(10)
	want := []int{3, 5, 55, 71, 72}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// BenchmarkSlotLoop measures the raw per-slot cost of the engine with a
// busy medium (profile with go test -bench=SlotLoop -cpuprofile).
func BenchmarkSlotLoop(b *testing.B) {
	topo := &topology.Topology{Name: "bench-line", NumAPs: 1, TxPowerDBm: 0}
	topo.Nodes = append(topo.Nodes, topology.Node{})
	const n = 50
	for i := 1; i <= n; i++ {
		topo.Nodes = append(topo.Nodes, topology.Node{
			ID: topology.NodeID(i), X: float64(i) * 5, IsAP: i == 1,
		})
	}
	nw := NewNetwork(topo, 1)
	frames := make([]*Frame, n+1)
	for i := 1; i <= n; i++ {
		frames[i] = &Frame{Kind: KindData, Src: topology.NodeID(i), Dst: topology.NodeID(i - 1)}
	}
	for i := 1; i <= n; i++ {
		id := topology.NodeID(i)
		var plan func(asn ASN) RadioOp
		switch {
		case i%2 == 0:
			f := frames[i]
			plan = func(asn ASN) RadioOp {
				return RadioOp{Kind: OpTx, Channel: phy.HopChannel(asn, uint8(i%16)), Frame: f, NeedAck: true}
			}
		default:
			plan = func(asn ASN) RadioOp {
				return RadioOp{Kind: OpRx, Channel: phy.HopChannel(asn, uint8((i+1)%16))}
			}
		}
		if err := nw.Attach(&quietDevice{id: id, plan: plan}); err != nil {
			b.Fatal(err)
		}
	}
	nw.Run(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// TestLinkFadeSilencesLink fades a perfect link below sensitivity and
// checks delivery stops, then lifts the fade and checks it resumes.
func TestLinkFadeSilencesLink(t *testing.T) {
	topo := pairTopology(t, 2)
	nw := NewNetwork(topo, 1)
	nw.FastFadingSigmaDB = 0
	frame := &Frame{Kind: KindData, Src: 2, Dst: 1, Seq: 7}
	tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
	rx := &scriptDevice{id: 1, plan: rxPlan(15)}
	for _, d := range []Device{tx, rx} {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	received := func() int {
		n := 0
		for _, rep := range rx.reports {
			if rep.Received != nil {
				n++
			}
		}
		return n
	}

	nw.AddLinkFade(1, 2, 200)
	nw.Run(20)
	if received() != 0 {
		t.Fatalf("received %d frames across a 200 dB fade", received())
	}
	nw.AddLinkFade(1, 2, -200)
	nw.Run(20)
	if received() == 0 {
		t.Fatal("no frames received after the fade lifted")
	}
}

// TestClockDriftBlocksSlots gives the receiver a fully drifted slot timer
// and checks it decodes nothing while the fault is active, recovers when
// cleared, and that the pattern is a pure function of the drift seed.
func TestClockDriftBlocksSlots(t *testing.T) {
	run := func(missProb float64, seed int64) int {
		topo := pairTopology(t, 2)
		nw := NewNetwork(topo, 1)
		nw.FastFadingSigmaDB = 0
		frame := &Frame{Kind: KindData, Src: 2, Dst: 1, Seq: 7}
		tx := &scriptDevice{id: 2, plan: txPlan(frame, 15, false)}
		rx := &scriptDevice{id: 1, plan: rxPlan(15)}
		for _, d := range []Device{tx, rx} {
			if err := nw.Attach(d); err != nil {
				t.Fatal(err)
			}
		}
		nw.SetClockDrift(1, missProb, seed)
		nw.Run(200)
		n := 0
		for _, rep := range rx.reports {
			if rep.Received != nil {
				n++
			}
		}
		return n
	}
	if got := run(1.0, 3); got != 0 {
		t.Fatalf("fully drifted receiver decoded %d frames", got)
	}
	healthy := run(0, 3)
	if healthy == 0 {
		t.Fatal("healthy receiver decoded nothing")
	}
	half := run(0.5, 3)
	if half == 0 || half >= healthy {
		t.Fatalf("half-drifted receiver decoded %d frames (healthy %d)", half, healthy)
	}
	if again := run(0.5, 3); again != half {
		t.Fatalf("same drift seed decoded %d then %d frames", half, again)
	}
	if other := run(0.5, 4); other == half {
		t.Logf("different drift seeds coincided at %d frames (possible, just unlikely)", other)
	}
}
