package whart

import (
	"fmt"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/mac/mactest"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func buildWhartNet(t *testing.T, seed int64) (*sim.Network, *Network, []Flow) {
	t.Helper()
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, seed)
	fl := make([]Flow, 0, len(topo.SuggestedSources))
	for i, src := range topo.SuggestedSources {
		fl = append(fl, Flow{ID: uint16(i + 1), Source: src, PeriodSlots: 500})
	}
	net, err := Build(nw, fl, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return nw, net, fl
}

func TestStaticStackDeliversInCleanNetwork(t *testing.T) {
	nw, net, fl := buildWhartNet(t, 3)
	col := metrics.NewCollector()
	net.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })

	// WirelessHART devices get their schedule pre-installed; only sync is
	// needed, which the EB wave provides quickly.
	nw.Run(sim.SlotsFor(60 * time.Second))

	const packets = 12
	for p := 0; p < packets; p++ {
		for _, f := range fl {
			seq := uint16(p)
			col.Sent(f.ID, seq, nw.ASN())
			nw.Wake(f.Source)
			_ = net.Nodes[f.Source].InjectData(&sim.Frame{
				Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: nw.ASN(),
			})
		}
		nw.Run(500) // one flow period
	}
	nw.Run(sim.SlotsFor(15 * time.Second))

	pdr := col.PDR()
	t.Logf("centralized WirelessHART clean PDR: %.3f", pdr)
	if pdr < 0.9 {
		t.Fatalf("clean-network PDR %.3f, want >= 0.9 (the manager computed these routes)", pdr)
	}
}

func TestStaticStackDoesNotAdaptToFailure(t *testing.T) {
	nw, net, fl := buildWhartNet(t, 3)
	col := metrics.NewCollector()
	net.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
	nw.Run(sim.SlotsFor(60 * time.Second))

	// Kill the most-used primary parent. The static schedule keeps
	// pointing at it: flows routed through the victim on BOTH primary and
	// backup should go dark, and those with a live backup survive at
	// reduced reliability — but nothing ever re-routes.
	use := map[topology.NodeID]int{}
	for _, f := range fl {
		cur := f.Source
		for !nw.Topology().IsAP(cur) {
			use[net.Routes.Best[cur]]++
			cur = net.Routes.Best[cur]
		}
	}
	var victim topology.NodeID
	best := 0
	for id, n := range use {
		if !nw.Topology().IsAP(id) && n > best {
			victim, best = id, n
		}
	}
	if victim == 0 {
		t.Skip("all primary routes are single-hop in this seed")
	}
	nw.Fail(victim)

	const packets = 12
	for p := 0; p < packets; p++ {
		for _, f := range fl {
			seq := uint16(100 + p)
			col.Sent(f.ID, seq, nw.ASN())
			nw.Wake(f.Source)
			_ = net.Nodes[f.Source].InjectData(&sim.Frame{
				Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: nw.ASN(),
			})
		}
		nw.Run(500)
	}
	nw.Run(sim.SlotsFor(15 * time.Second))

	// The victim's children keep burning their primary cells forever; at
	// least one flow must be visibly degraded, and the network never
	// recovers (that is Figure 3's motivation: the manager needs minutes
	// to push a fix).
	degraded := 0
	for _, f := range fl {
		if col.FlowPDR(f.ID) < 0.999 {
			degraded++
		}
	}
	t.Logf("degraded flows after failure with static schedule: %d/%d", degraded, len(fl))
	if degraded == 0 {
		t.Fatal("killing the busiest router degraded nothing; victim selection is wrong")
	}
}

func TestStackCellsMatchSuperframe(t *testing.T) {
	topo := topology.TestbedA()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	fl := []Flow{{ID: 1, Source: topo.SuggestedSources[0], PeriodSlots: 400}}
	sf, err := ComputeSchedule(topo, routes, fl)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sf.Entries {
		tx, err := NewStack(e.Tx, topo.IsAP(e.Tx), routes, sf)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewStack(e.Rx, topo.IsAP(e.Rx), routes, sf)
		if err != nil {
			t.Fatal(err)
		}
		// Pick an ASN landing on this slot but clear of both nodes' sync
		// slots.
		asn := e.Slot
		for i := 0; i < 600; i++ {
			aTx, aRx := tx.Assignment(asn), rx.Assignment(asn)
			if aTx.Role == mac.RoleTxEB || aTx.Role == mac.RoleRxEB ||
				aRx.Role == mac.RoleTxEB || aRx.Role == mac.RoleRxEB {
				asn += sf.Length
				continue
			}
			if aTx.Role != mac.RoleTxData {
				t.Fatalf("tx node %d role %v in its cell", e.Tx, aTx.Role)
			}
			if aRx.Role != mac.RoleRxData {
				t.Fatalf("rx node %d role %v in its cell", e.Rx, aRx.Role)
			}
			if aTx.ChannelOffset != aRx.ChannelOffset {
				t.Fatalf("cell channel mismatch: %d vs %d", aTx.ChannelOffset, aRx.ChannelOffset)
			}
			if hop, ok := tx.NextHop(asn, 1); !ok || hop != e.Rx {
				t.Fatalf("next hop (%d, %v), want (%d, true)", hop, ok, e.Rx)
			}
			break
		}
	}
}

// TestNextActiveExact: the static stack has cells and no timers, so its
// NextActive is not merely conservative but exact — for every node and
// every starting slot of two hyperperiod-spanning stretches it names
// precisely the first slot whose Assignment is not sleep, and with nothing
// queued the first that is neither sleep nor an own transmit cell.
func TestNextActiveExact(t *testing.T) {
	_, net, _ := buildWhartNet(t, 3)
	for _, s := range net.Stacks[1:] {
		for _, from := range []sim.ASN{0, 7 * stackSyncFrameLen * 500} {
			mactest.RequireNextActiveExact(t, fmt.Sprintf("node %d", s.id), s, from, 2*stackSyncFrameLen)
		}
	}
}
