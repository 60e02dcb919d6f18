package mac

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(kind uint8, src, dst, seq, origin, flow uint16, born uint32,
		route []uint16, payload []byte) bool {
		if len(route) > 20 {
			route = route[:20]
		}
		if len(payload) > 40 {
			payload = payload[:40]
		}
		in := &sim.Frame{
			Kind:    sim.FrameKind(kind),
			Src:     topology.NodeID(src),
			Dst:     topology.NodeID(dst),
			Seq:     seq,
			Origin:  topology.NodeID(origin),
			FlowID:  flow,
			BornASN: int64(born),
		}
		for _, h := range route {
			in.Route = append(in.Route, topology.NodeID(h))
		}
		if len(payload) > 0 {
			in.Payload = append([]byte(nil), payload...)
		}
		b, err := EncodeFrame(in)
		if err != nil {
			// Oversize frames are allowed to fail; nothing else is.
			return frameHeaderSize+2*len(in.Route)+len(in.Payload) > MaxFramePayload
		}
		out, err := DecodeFrame(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFrameRejectsOversize(t *testing.T) {
	f := &sim.Frame{Kind: sim.KindData, Payload: make([]byte, 200)}
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("accepted a 200-byte payload")
	}
	f = &sim.Frame{Kind: sim.KindCommand, Route: make([]topology.NodeID, 60)}
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("accepted a 60-hop route")
	}
	f = &sim.Frame{Kind: sim.KindData, BornASN: 1 << 41}
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("accepted an out-of-range ASN")
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame(nil); err == nil {
		t.Fatal("decoded nil")
	}
	if _, err := DecodeFrame(make([]byte, 5)); err == nil {
		t.Fatal("decoded a short buffer")
	}
	// Claimed route longer than the buffer.
	b := make([]byte, frameHeaderSize)
	b[16] = 10
	if _, err := DecodeFrame(b); err == nil {
		t.Fatal("decoded a truncated route")
	}
}

// TestEveryTransmittedFrameIsCodable runs a real DiGS-era traffic mix (a
// MAC chain with uplink data and downlink commands) and
// round-trips every frame the medium carries through the wire codec: the
// whole protocol suite must stay within the 802.15.4 MPDU budget.
func TestEveryTransmittedFrameIsCodable(t *testing.T) {
	topo := lineTopology(t, 5)
	nw := sim.NewNetwork(topo, 1)
	cfg := DefaultConfig()
	cfg.DownlinkFrameLen = 53
	nodes := make([]*Node, 6)
	for i := 1; i <= 5; i++ {
		id := topology.NodeID(i)
		p := &staticProto{id: id, parent: topology.NodeID(i - 1)}
		nodes[i] = NewNode(id, i == 1, p, cfg)
		if err := nw.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}

	frames := 0
	nw.Trace = func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceTx || ev.Frame == nil {
			return
		}
		frames++
		b, err := EncodeFrame(ev.Frame)
		if err != nil {
			t.Fatalf("frame not encodable at ASN %d: %v (%+v)", ev.ASN, err, ev.Frame)
		}
		out, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("frame not decodable at ASN %d: %v", ev.ASN, err)
		}
		if out.Kind != ev.Frame.Kind || out.Src != ev.Frame.Src || out.Seq != ev.Frame.Seq {
			t.Fatalf("round trip mismatch at ASN %d: %+v vs %+v", ev.ASN, ev.Frame, out)
		}
	}

	nw.Run(sim.SlotsFor(5 * time.Second)) // join + EBs
	for seq := uint16(0); seq < 3; seq++ {
		nw.Wake(5)
		_ = nodes[5].InjectData(&sim.Frame{Origin: 5, FlowID: 1, Seq: seq, BornASN: nw.ASN()})
		nw.Run(sim.SlotsFor(2 * time.Second))
	}
	_ = nodes[1].SendCommand([]topology.NodeID{2, 3, 4, 5}, []byte{9})
	nw.Run(sim.SlotsFor(10 * time.Second))

	if frames < 100 {
		t.Fatalf("trace saw only %d transmissions; the scenario did not run", frames)
	}
}
