package orchestra

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// TestNextActiveReceiverBased covers the unicast mode no registered scenario
// builds: in receiver-based Orchestra the transmit cell is the parent's, the
// listen cell the node's own, and the transmit cell's role closure counts the
// retry backoff down. A half-testbed run that naps must end in the same
// stack states and MAC counters, bit for bit, as one in which every device
// is woken before every slot and so never skips an Assignment call.
func TestNextActiveReceiverBased(t *testing.T) {
	run := func(nap bool) string {
		topo := topology.HalfTestbedA()
		nw := sim.NewNetwork(topo, 17)
		cfg := DefaultConfig()
		cfg.ReceiverBased = true
		net, err := Build(nw, cfg, mac.DefaultConfig(), 17)
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		net.OnDeliver(func(sim.ASN, *sim.Frame) { delivered++ })
		for slot, seq := sim.ASN(0), uint16(0); slot < 24000; slot++ {
			if slot >= 6000 && slot%500 == 0 { // contention: every source at once
				for _, src := range topo.SuggestedSources {
					_ = net.Nodes[src].InjectData(&sim.Frame{Origin: src, FlowID: uint16(src), Seq: seq, BornASN: slot})
				}
				seq++
			}
			if !nap {
				for id := 1; id <= topo.N(); id++ {
					nw.Wake(topology.NodeID(id))
				}
			}
			nw.Step()
		}
		if delivered == 0 {
			t.Fatal("nothing delivered: the comparison would be vacuous")
		}
		nw.SettleNaps()
		states, err := net.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		retried := false
		for i := 1; i <= topo.N(); i++ {
			var w wire.Writer
			states[i].AppendTo(&w)
			st := net.Nodes[i].Stats()
			fmt.Fprintf(&out, "%d: %x energy %016x %+v\n", i, w.Buf, math.Float64bits(st.EnergyJoules), st)
			if st.Slots != nw.ASN() {
				t.Fatalf("node %d accounts for %d slots at slot %d", i, st.Slots, nw.ASN())
			}
			if st.TxData > st.Forwarded+st.Generated {
				retried = true
			}
		}
		if !retried {
			t.Fatal("no data retransmission: the retry backoff was never drawn")
		}
		return out.String()
	}
	if napping, sleepless := run(true), run(false); napping != sleepless {
		t.Fatalf("receiver-based run differs with naps\n got:\n%s\nwant:\n%s", napping, sleepless)
	}
}
