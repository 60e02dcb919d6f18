package mac

import (
	"testing"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// lineTopology builds an n-node chain with 5 m spacing, no shadowing, full
// power: adjacent links are perfect, distant links are dead.
func lineTopology(t *testing.T, n int) *topology.Topology {
	t.Helper()
	topo := &topology.Topology{Name: "line", NumAPs: 1, TxPowerDBm: -15}
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

// staticProto is a hand-wired protocol for MAC tests: a fixed parent, an
// EB slotframe of length 10 (node i beacons in slot i-1, listens in its
// parent's slot), and a data slotframe of length 10 where node i transmits
// in slot i+2 and listens in slot i+3 (its chain child's transmit slot);
// all other slots sleep, leaving room for the downlink slotframe.
type staticProto struct {
	id       topology.NodeID
	parent   topology.NodeID
	synced   bool
	syncASN  sim.ASN
	txResult []bool
}

func (p *staticProto) Assignment(asn sim.ASN) Assignment {
	slot := asn % 10
	switch {
	case slot == int64(p.id-1):
		return Assignment{Role: RoleTxEB}
	case p.parent != 0 && slot == int64(p.parent-1):
		return Assignment{Role: RoleRxEB}
	case slot == int64(p.id)+2:
		return Assignment{Role: RoleTxData, Attempt: 1}
	case slot == int64(p.id)+3:
		return Assignment{Role: RoleRxData} // chain child's transmit slot
	default:
		return Assignment{Role: RoleSleep}
	}
}

func (p *staticProto) NextActive(after sim.ASN, _ bool) sim.ASN { return after } // never naps
func (p *staticProto) OnSynced(asn sim.ASN)                     { p.synced = true; p.syncASN = asn }
func (p *staticProto) OnFrame(sim.ASN, *sim.Frame, float64)     {}
func (p *staticProto) SharedFrame(sim.ASN) (*sim.Frame, bool)   { return nil, false }
func (p *staticProto) NextHop(sim.ASN, int) (topology.NodeID, bool) {
	return p.parent, p.parent != 0
}
func (p *staticProto) OnTxResult(_ sim.ASN, f *sim.Frame, _ topology.NodeID, acked bool) {
	if f.Kind == sim.KindData {
		p.txResult = append(p.txResult, acked)
	}
}

func buildChain(t *testing.T, n int) (*sim.Network, []*Node, []*staticProto) {
	t.Helper()
	topo := lineTopology(t, n)
	nw := sim.NewNetwork(topo, 1)
	nodes := make([]*Node, n+1)
	protos := make([]*staticProto, n+1)
	for i := 1; i <= n; i++ {
		id := topology.NodeID(i)
		parent := topology.NodeID(i - 1) // chain toward the AP
		p := &staticProto{id: id, parent: parent}
		protos[i] = p
		nodes[i] = NewNode(id, i == 1, p, DefaultConfig())
		if err := nw.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return nw, nodes, protos
}

func TestNodesJoinViaEBWave(t *testing.T) {
	nw, nodes, protos := buildChain(t, 4)
	nw.Run(500)
	for i := 1; i <= 4; i++ {
		synced, at := nodes[i].Synced()
		if !synced {
			t.Fatalf("node %d never synchronised", i)
		}
		if i == 1 && at != 0 {
			t.Fatalf("AP synced at %d, want 0", at)
		}
		if !protos[i].synced {
			t.Fatalf("protocol %d not told about sync", i)
		}
	}
	// The join wave must propagate outward: deeper nodes sync later.
	_, at2 := nodes[2].Synced()
	_, at4 := nodes[4].Synced()
	if at4 < at2 {
		t.Fatalf("node 4 synced at %d before node 2 at %d", at4, at2)
	}
}

func TestDataForwardingAlongChain(t *testing.T) {
	nw, nodes, _ := buildChain(t, 4)
	var delivered []*sim.Frame
	nodes[1].Sink = func(_ sim.ASN, f *sim.Frame) { delivered = append(delivered, f) }
	nw.Run(500) // let everyone join

	for seq := uint16(0); seq < 5; seq++ {
		if err := nodes[4].InjectData(&sim.Frame{
			Origin: 4, FlowID: 1, Seq: seq, BornASN: nw.ASN(),
		}); err != nil {
			t.Fatal(err)
		}
		nw.Run(200)
	}
	if len(delivered) != 5 {
		t.Fatalf("AP received %d packets, want 5", len(delivered))
	}
	for i, f := range delivered {
		if f.Origin != 4 || f.FlowID != 1 || int(f.Seq) != i {
			t.Fatalf("packet %d has identity %+v", i, f)
		}
		if f.BornASN == 0 {
			t.Fatal("BornASN lost in forwarding")
		}
	}
	// Intermediate nodes actually forwarded.
	if nodes[2].Stats().Forwarded != 5 || nodes[3].Stats().Forwarded != 5 {
		t.Fatalf("forward counts: node2=%d node3=%d, want 5 each",
			nodes[2].Stats().Forwarded, nodes[3].Stats().Forwarded)
	}
}

func TestRetryDropAfterBudget(t *testing.T) {
	topo := lineTopology(t, 2)
	nw := sim.NewNetwork(topo, 1)
	// Node 2's parent is node 1, but node 1 is failed: every transmission
	// goes unacknowledged and the packet must eventually be dropped.
	p := &staticProto{id: 2, parent: 1}
	cfg := Config{QueueCap: 4, MaxTxPerPacket: 3}
	n2 := NewNode(2, false, p, cfg)
	p1 := &staticProto{id: 1}
	n1 := NewNode(1, true, p1, cfg)
	if err := nw.Attach(n1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(n2); err != nil {
		t.Fatal(err)
	}
	nw.Run(200) // join
	nw.Fail(1)
	if err := n2.InjectData(&sim.Frame{Origin: 2, FlowID: 1, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	nw.Run(100)
	if n2.QueueLen() != 0 {
		t.Fatalf("packet not dropped after retry budget; queue len %d", n2.QueueLen())
	}
	if got := n2.Stats().DroppedRetries; got != 1 {
		t.Fatalf("DroppedRetries = %d, want 1", got)
	}
	// The protocol saw the failed attempts.
	if len(p.txResult) != 3 {
		t.Fatalf("protocol saw %d data tx results, want 3", len(p.txResult))
	}
	for _, acked := range p.txResult {
		if acked {
			t.Fatal("ack reported while receiver was dead")
		}
	}
}

func TestQueueOverflow(t *testing.T) {
	topo := lineTopology(t, 2)
	nw := sim.NewNetwork(topo, 1)
	p := &staticProto{id: 2} // no parent: nothing ever leaves the queue
	cfg := Config{QueueCap: 2, MaxTxPerPacket: 3}
	n2 := NewNode(2, false, p, cfg)
	if err := nw.Attach(n2); err != nil {
		t.Fatal(err)
	}
	for seq := uint16(0); seq < 4; seq++ {
		err := n2.InjectData(&sim.Frame{Origin: 2, FlowID: 1, Seq: seq})
		if seq < 2 && err != nil {
			t.Fatalf("packet %d rejected with room in queue: %v", seq, err)
		}
		if seq >= 2 && err == nil {
			t.Fatalf("packet %d accepted into a full queue", seq)
		}
	}
	st := n2.Stats()
	if st.Generated != 4 || st.DroppedQueue != 2 {
		t.Fatalf("stats = %+v, want Generated 4, DroppedQueue 2", st)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	nw, nodes, _ := buildChain(t, 2)
	var delivered int
	nodes[1].Sink = func(sim.ASN, *sim.Frame) { delivered++ }
	nw.Run(200)
	// Inject the same end-to-end identity twice (simulating a
	// retransmission after a lost ACK upstream).
	for i := 0; i < 2; i++ {
		if err := nodes[2].InjectData(&sim.Frame{Origin: 2, FlowID: 1, Seq: 7}); err != nil {
			t.Fatal(err)
		}
		nw.Run(100)
	}
	if delivered != 1 {
		t.Fatalf("AP delivered %d copies, want 1 (duplicate suppressed)", delivered)
	}
	if nodes[1].Stats().Duplicates != 1 {
		t.Fatalf("duplicate counter = %d, want 1", nodes[1].Stats().Duplicates)
	}
}

func TestUnsyncedNodeIgnoresDataFrames(t *testing.T) {
	topo := lineTopology(t, 2)
	nw := sim.NewNetwork(topo, 1)
	p := &staticProto{id: 2, parent: 1}
	n2 := NewNode(2, false, p, DefaultConfig())
	if err := nw.Attach(n2); err != nil {
		t.Fatal(err)
	}
	// Node 1 is a bare script device that spams data frames; node 2 must
	// not sync from them.
	f := &sim.Frame{Kind: sim.KindData, Src: 1, Dst: 2, Origin: 1, FlowID: 1}
	spammer := &fakeDevice{id: 1, op: sim.RadioOp{Kind: sim.OpTx, Channel: 16, Frame: f}}
	if err := nw.Attach(spammer); err != nil {
		t.Fatal(err)
	}
	nw.Run(100)
	if synced, _ := n2.Synced(); synced {
		t.Fatal("node synchronised from a data frame")
	}
}

type fakeDevice struct {
	id topology.NodeID
	op sim.RadioOp
}

func (d *fakeDevice) ID() topology.NodeID             { return d.id }
func (d *fakeDevice) Plan(sim.ASN) sim.RadioOp        { return d.op }
func (d *fakeDevice) EndSlot(sim.ASN, sim.SlotReport) {}

func TestEnergyAccumulates(t *testing.T) {
	nw, nodes, _ := buildChain(t, 3)
	nw.Run(1000)
	for i := 1; i <= 3; i++ {
		st := nodes[i].Stats()
		if st.Slots != 1000 && i == 1 {
			t.Fatalf("AP accounted %d slots, want 1000", st.Slots)
		}
		if st.EnergyJoules <= 0 {
			t.Fatalf("node %d accumulated no energy", i)
		}
		dc := st.DutyCycle()
		if dc <= 0 || dc > 1 {
			t.Fatalf("node %d duty cycle %.3f outside (0,1]", i, dc)
		}
	}
}

func (p *staticProto) EBPayload() []byte { return nil }

// napProto is staticProto with a structurally queryable schedule.
type napProto struct{ staticProto }

func (p *napProto) NextActive(after sim.ASN, queued bool) sim.ASN {
	for r := p.Assignment(after).Role; r == RoleSleep || r == RoleTxData && !queued; r = p.Assignment(after).Role {
		after++
	}
	return after
}

// TestNapSurvivesQueuedData: a queued data packet does not keep a node
// awake — it can only leave in the node's own transmit cell, which the
// protocol's NextActive reports while anything is queued and leaves out
// while nothing is — while whatever depends on frames other nodes may send
// still does.
func TestNapSurvivesQueuedData(t *testing.T) {
	// Node 3 of the chain: EB in slot 2, parent's EB in slot 1, data
	// transmit cell in slot 5, listen cell in slot 6 of every ten.
	n := NewNode(3, false, &napProto{staticProto{id: 3, parent: 2}}, DefaultConfig())
	if w, op := n.NextWake(2); w != scanDwellSlots || op != n.Plan(3) || op != n.Plan(scanDwellSlots-1) || op.Kind != sim.OpScan {
		t.Fatalf("unsynchronised node naps until %d on %+v; it must nap to the dwell boundary %d and name that dwell's scan %+v",
			w, op, scanDwellSlots, n.Plan(3))
	}
	n.synced = true
	if w, _ := n.NextWake(2); w != 6 {
		t.Fatalf("idle node naps until %d, want its listen cell 6, past its idle transmit cell 5", w)
	}
	if err := n.InjectData(&sim.Frame{Origin: 3, FlowID: 1}); err != nil {
		t.Fatal(err)
	}
	if w, _ := n.NextWake(2); w != 5 {
		t.Fatalf("node with a queued packet naps until %d, want its transmit cell 5", w)
	}
	if op := n.Plan(5); op.Kind != sim.OpTx || op.Frame.Kind != sim.KindData || op.Frame.Dst != 2 {
		t.Fatalf("plan in the transmit cell the nap ends at: %+v", op)
	}

	n.downQueue = []queuedPacket{{frame: &sim.Frame{Kind: sim.KindCommand}}}
	if w, _ := n.NextWake(2); w != 3 {
		t.Fatalf("node relaying a command naps until %d", w)
	}
	n.downQueue = nil
	n.cfg.DownlinkFrameLen = 20
	if w, _ := n.NextWake(2); w != 3 {
		t.Fatalf("node with a downlink slotframe naps until %d", w)
	}
}
