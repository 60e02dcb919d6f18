package scenario

import (
	"context"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/topology"
)

// TestInjectWakesANappingSource pins the nap contract of the one injection
// path: a packet handed to a node that naps through the next slot wakes it,
// and the slot loop plans it in that slot, whether the packet comes through
// Inject or through a Drive window. Twins are formed identically; one steps
// a slot untouched, which names the field devices that nap through it (a
// napping device's slot count lags the clock), and the other injects into
// each of them first. Those devices must then be accounted for up to the
// clock, and the loop must have made exactly that many more Plan calls.
func TestInjectWakesANappingSource(t *testing.T) {
	for _, proto := range []string{"digs", "orchestra"} {
		for _, viaDrive := range []bool{false, true} {
			form := func() *Scenario {
				sc, err := Build(Params{TopologyName: "half-testbed-a", Protocol: proto, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sc.Form(context.Background(), nil, 1.0, 10*time.Minute, 20*time.Second); err != nil {
					t.Fatal(err)
				}
				return sc
			}
			ref, sc := form(), form()
			topo := sc.Params.Topology

			ref.NW.Step()
			var nappers []topology.NodeID
			for i := topo.NumAPs + 1; i <= topo.N(); i++ {
				if ref.MACNode(i).Stats().Slots < ref.NW.ASN() {
					nappers = append(nappers, topology.NodeID(i))
				}
			}
			if len(nappers) == 0 {
				t.Fatalf("%s: no field device naps through slot %d; the test proves nothing", proto, ref.NW.ASN()-1)
			}

			for k, id := range nappers {
				if sc.MACNode(int(id)).Stats().Slots >= sc.NW.ASN() {
					t.Fatalf("%s: twins differ: node %d is awake", proto, id)
				}
				if viaDrive {
					f := flows.Flow{ID: uint16(k + 1), Source: id, Period: time.Second}
					sc.Drive([]flows.Flow{f}, 1, 0, nil)
				} else if err := sc.Inject(id, uint16(k+1), 0); err != nil {
					t.Fatal(err)
				}
			}
			sc.NW.Step()
			for _, id := range nappers {
				if got := sc.MACNode(int(id)).Stats().Slots; got != sc.NW.ASN() {
					t.Errorf("%s (drive %v): node %d napped through its injection: %d of %d slots accounted for",
						proto, viaDrive, id, got, sc.NW.ASN())
				}
			}
			if got, want := sc.NW.LoopStats().Plans()-ref.NW.LoopStats().Plans(), int64(len(nappers)); got != want {
				t.Errorf("%s (drive %v): injecting into %d napping sources made %d more Plan calls",
					proto, viaDrive, want, got)
			}
		}
	}
}
