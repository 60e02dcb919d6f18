package mac

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func downlinkChain(t *testing.T, n int) (*sim.Network, []*Node) {
	t.Helper()
	topo := lineTopology(t, n)
	nw := sim.NewNetwork(topo, 1)
	cfg := DefaultConfig()
	cfg.DownlinkFrameLen = 53
	nodes := make([]*Node, n+1)
	for i := 1; i <= n; i++ {
		id := topology.NodeID(i)
		p := &staticProto{id: id, parent: topology.NodeID(i - 1)}
		nodes[i] = NewNode(id, i == 1, p, cfg)
		if err := nw.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(500) // join
	return nw, nodes
}

func TestSendCommandValidation(t *testing.T) {
	topo := lineTopology(t, 2)
	nw := sim.NewNetwork(topo, 1)
	p := &staticProto{id: 1}
	n1 := NewNode(1, true, p, DefaultConfig()) // downlink disabled
	if err := nw.Attach(n1); err != nil {
		t.Fatal(err)
	}
	if err := n1.SendCommand([]topology.NodeID{2}, nil); err == nil {
		t.Fatal("accepted command with downlink disabled")
	}

	cfg := DefaultConfig()
	cfg.DownlinkFrameLen = 53
	n2 := NewNode(2, false, &staticProto{id: 2}, cfg)
	if err := n2.SendCommand(nil, nil); err == nil {
		t.Fatal("accepted empty route")
	}
}

func TestDownlinkCommandTraversesChain(t *testing.T) {
	nw, nodes := downlinkChain(t, 4)
	var got []byte
	nodes[4].CommandSink = func(_ sim.ASN, f *sim.Frame) { got = f.Payload }

	// AP (node 1) source-routes a command 1 -> 2 -> 3 -> 4.
	if err := nodes[1].SendCommand([]topology.NodeID{2, 3, 4}, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	nw.Run(1000)
	if got == nil {
		t.Fatal("command never reached node 4")
	}
	if got[0] != 0xAB {
		t.Fatalf("payload corrupted: %v", got)
	}
	if nodes[4].Stats().CommandsDelivered != 1 {
		t.Fatalf("CommandsDelivered = %d, want 1", nodes[4].Stats().CommandsDelivered)
	}
	// Intermediates relayed but did not consume.
	for _, i := range []int{2, 3} {
		if nodes[i].Stats().CommandsDelivered != 0 {
			t.Fatalf("intermediate %d consumed the command", i)
		}
	}
}

func TestDownlinkDuplicateCommandSuppressed(t *testing.T) {
	nw, nodes := downlinkChain(t, 2)
	count := 0
	nodes[2].CommandSink = func(sim.ASN, *sim.Frame) { count++ }
	if err := nodes[1].SendCommand([]topology.NodeID{2}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	nw.Run(500)
	if count != 1 {
		t.Fatalf("command delivered %d times, want 1", count)
	}
}

func TestUplinkRecordsRoute(t *testing.T) {
	nw, nodes, _ := buildChain(t, 4)
	var path []topology.NodeID
	nodes[1].Sink = func(_ sim.ASN, f *sim.Frame) {
		path = append(append([]topology.NodeID(nil), f.Route...), f.Src)
	}
	nw.Run(500)
	if err := nodes[4].InjectData(&sim.Frame{Origin: 4, FlowID: 1, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	nw.Run(300)
	if len(path) != 3 {
		t.Fatalf("recorded path %v, want 3 hops (4 -> 3 -> 2 -> AP)", path)
	}
	want := []topology.NodeID{4, 3, 2}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("recorded path %v, want %v", path, want)
		}
	}
}

// slotProto is a minimal protocol with explicit transmit/listen slots for
// loop-shaped routing tests.
type slotProto struct {
	id     topology.NodeID
	parent topology.NodeID
	txSlot int64
	rxSlot int64
}

func (p *slotProto) Assignment(asn sim.ASN) Assignment {
	switch asn % 10 {
	case int64(p.id - 1):
		return Assignment{Role: RoleTxEB}
	case p.txSlot:
		return Assignment{Role: RoleTxData, Attempt: 1}
	case p.rxSlot:
		return Assignment{Role: RoleRxData}
	default:
		return Assignment{Role: RoleSleep}
	}
}
func (p *slotProto) NextActive(after sim.ASN, _ bool) sim.ASN { return after }
func (p *slotProto) OnSynced(sim.ASN)                         {}
func (p *slotProto) EBPayload() []byte                        { return nil }
func (p *slotProto) OnFrame(sim.ASN, *sim.Frame, float64)     {}
func (p *slotProto) SharedFrame(sim.ASN) (*sim.Frame, bool)   { return nil, false }
func (p *slotProto) NextHop(sim.ASN, int) (topology.NodeID, bool) {
	return p.parent, p.parent != 0
}
func (p *slotProto) OnTxResult(sim.ASN, *sim.Frame, topology.NodeID, bool) {}

func TestSplitHorizonParksAndDrops(t *testing.T) {
	// Node 2 routes to node 3 and node 3 routes back to node 2 (a stale
	// two-node loop): split horizon must park the bounced packet at node 3
	// and eventually drop it rather than return it to node 2.
	topo := lineTopology(t, 3)
	nw := sim.NewNetwork(topo, 1)
	cfg := Config{QueueCap: 4, MaxTxPerPacket: 8}
	p2 := &slotProto{id: 2, parent: 3, txSlot: 4, rxSlot: 6}
	p3 := &slotProto{id: 3, parent: 2, txSlot: 6, rxSlot: 4}
	n2 := NewNode(2, false, p2, cfg)
	n3 := NewNode(3, false, p3, cfg)
	n1 := NewNode(1, true, &slotProto{id: 1}, cfg)
	for _, n := range []*Node{n1, n2, n3} {
		if err := nw.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(300) // join

	// Node 2 originates: 2 -> 3 succeeds; 3 would forward back to 2, but
	// split horizon blocks that, and the packet eventually drops at 3.
	if err := n2.InjectData(&sim.Frame{Origin: 2, FlowID: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	nw.RunUntil(sim.SlotsFor(60*time.Second), func() bool {
		return n2.QueueLen() == 0 && n3.QueueLen() == 0
	})
	if n3.Stats().Duplicates != 0 {
		t.Fatal("split horizon failed: the packet bounced back")
	}
	if n3.QueueLen() != 0 {
		t.Fatal("blocked packet never dropped")
	}
	if n3.Stats().DroppedRetries == 0 {
		t.Fatal("blocked drop not accounted")
	}
}

func TestDownlinkQueueCap(t *testing.T) {
	topo := lineTopology(t, 2)
	nw := sim.NewNetwork(topo, 1)
	cfg := Config{QueueCap: 2, MaxTxPerPacket: 4, DownlinkFrameLen: 53}
	n1 := NewNode(1, true, &staticProto{id: 1}, cfg)
	if err := nw.Attach(n1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := n1.SendCommand([]topology.NodeID{2}, nil); err != nil {
			t.Fatalf("command %d rejected with room: %v", i, err)
		}
	}
	if err := n1.SendCommand([]topology.NodeID{2}, nil); err == nil {
		t.Fatal("command accepted into a full downlink queue")
	}
}
