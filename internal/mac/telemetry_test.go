package mac

import (
	"bytes"
	"testing"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// TestHooksRecordLifecycle drives a packet down a 3-node chain with a JSONL
// tracer attached and checks the full event sequence comes out of the
// stream: generated and enqueued at the origin, transmission attempts at
// every hop, received at each forwarder, delivered at the AP with the right
// hop count.
func TestHooksRecordLifecycle(t *testing.T) {
	nw, nodes, _ := buildChain(t, 3)
	var stream bytes.Buffer
	sink := telemetry.NewJSONL(&stream)
	for i := 1; i <= 3; i++ {
		nodes[i].SetTracer(sink)
	}
	nw.Run(500) // let everyone join

	if err := nodes[3].InjectData(&sim.Frame{
		Origin: 3, FlowID: 7, Seq: 1, BornASN: nw.ASN(),
	}); err != nil {
		t.Fatal(err)
	}
	nw.Run(300)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	counts := map[telemetry.EventType]int{}
	var delivered *telemetry.Event
	err := telemetry.Scan(&stream, func(ev telemetry.Event) error {
		if ev.Flow != 7 {
			return nil
		}
		counts[ev.Type]++
		if ev.Type == telemetry.EvDelivered {
			delivered = &ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[telemetry.EvGenerated] != 1 {
		t.Fatalf("generated events = %d, want 1", counts[telemetry.EvGenerated])
	}
	// Enqueued at the origin and at the intermediate forwarder.
	if counts[telemetry.EvEnqueued] != 2 {
		t.Fatalf("enqueued events = %d, want 2", counts[telemetry.EvEnqueued])
	}
	if counts[telemetry.EvTxAttempt] < 2 {
		t.Fatalf("tx attempts = %d, want >= 2 (one per hop)", counts[telemetry.EvTxAttempt])
	}
	// Received at node 2 (forwarder) and node 1 (AP).
	if counts[telemetry.EvReceived] != 2 {
		t.Fatalf("received events = %d, want 2", counts[telemetry.EvReceived])
	}
	if delivered == nil {
		t.Fatal("no delivered event")
	}
	if delivered.Node != 1 || delivered.Origin != 3 || delivered.Hop != 2 {
		t.Fatalf("delivered event = %+v, want node 1, origin 3, hop 2", delivered)
	}
}

// retxProto always transmits the head-of-queue packet toward a fixed next
// hop, so the data-path hook points can be exercised in a tight loop.
type retxProto struct{ next topology.NodeID }

func (p *retxProto) Assignment(sim.ASN) Assignment {
	return Assignment{Role: RoleTxData, ChannelOffset: 3, Attempt: 1}
}
func (p *retxProto) NextActive(after sim.ASN, _ bool) sim.ASN              { return after }
func (p *retxProto) OnSynced(sim.ASN)                                      {}
func (p *retxProto) EBPayload() []byte                                     { return nil }
func (p *retxProto) OnFrame(sim.ASN, *sim.Frame, float64)                  {}
func (p *retxProto) SharedFrame(sim.ASN) (*sim.Frame, bool)                { return nil, false }
func (p *retxProto) NextHop(sim.ASN, int) (topology.NodeID, bool)          { return p.next, true }
func (p *retxProto) OnTxResult(sim.ASN, *sim.Frame, topology.NodeID, bool) {}

// TestDataPathZeroAllocsTracingDisabled pins the MAC's instrumented data
// path at zero heap allocations when no tracer is installed: the telemetry
// hook points must stay a plain nil check, or the engine's zero-allocation
// slot loop guarantee (see sim.TestSlotLoopZeroAllocs) silently erodes for
// real protocol stacks. The node retransmits one unacked packet forever,
// crossing the Plan tx path and the txDone fold every iteration.
func TestDataPathZeroAllocsTracingDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxTxPerPacket = 1 << 30 // never exhaust the retry budget
	n := NewNode(2, true, &retxProto{next: 1}, cfg)
	if err := n.InjectData(&sim.Frame{Origin: 2, FlowID: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}

	asn := sim.ASN(0)
	step := func() {
		op := n.Plan(asn)
		n.EndSlot(asn, sim.SlotReport{Op: op, Acked: false})
		asn++
	}
	step() // warm up
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("data path with tracing disabled allocates %.1f objects/slot, want 0", allocs)
	}
	if n.QueueLen() != 1 {
		t.Fatalf("queue drained unexpectedly (len %d); the loop no longer exercises the tx path", n.QueueLen())
	}
}
