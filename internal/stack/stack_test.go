package stack_test

import (
	"testing"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

func TestHashConfigStable(t *testing.T) {
	a := stack.HashConfig(mac.DefaultConfig(), core.DefaultConfig(1))
	b := stack.HashConfig(mac.DefaultConfig(), core.DefaultConfig(1))
	if a != b {
		t.Fatal("same configs hash differently")
	}
	if a == stack.HashConfig(mac.DefaultConfig(), core.DefaultConfig(2)) {
		t.Fatal("different configs hash equal")
	}
}

// JoinedCount is formation's RunUntil predicate, asked after every executed
// slot: once counting, through the type-erased bundle it must not allocate.
func TestJoinedCountDoesNotAllocate(t *testing.T) {
	topo := topology.HalfTestbedA()
	nw := sim.NewNetwork(topo, 1)
	net, err := core.Build(nw, core.DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(3000)
	var bundle stack.Bundle = net
	if bundle.JoinedCount() < topo.NumAPs {
		t.Fatalf("JoinedCount = %d on a stepped network", bundle.JoinedCount())
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = bundle.JoinedCount() }); allocs != 0 {
		t.Fatalf("JoinedCount allocates %.0f times per call", allocs)
	}
}

// The watchdog's heal must wake the node it reboots: an orphan is
// synchronised and idle, so on the sparse engine it is napping, and a
// rebooted node that stayed in that nap would sit unsynchronised, radio
// off, until the wake slot of the schedule it just discarded.
func TestHealerWakesNappingNode(t *testing.T) {
	topo := topology.HalfTestbedA()
	nw := sim.NewScaleNetwork(topo, 1)
	net, err := core.Build(nw, core.DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.RunUntil(60000, func() bool { return net.JoinedCount() == topo.N() }); !ok {
		t.Fatal("network did not form")
	}
	// The engine asked every node for its next wake after the node's last
	// slot, and nothing has changed a napping node since: asked again, it
	// names the slot its nap ends.
	var id topology.NodeID
	for i := topo.NumAPs + 1; i <= topo.N() && id == 0; i++ {
		if w, _ := net.Nodes[i].NextWake(nw.ASN() - 1); w > nw.ASN()+1 {
			id = topology.NodeID(i)
		}
	}
	if id == 0 {
		t.Fatal("no field device napping past the next slot")
	}
	node := net.Nodes[id]

	net.Healer(nw)(id, nw.ASN())
	if synced, _ := node.Synced(); synced {
		t.Fatal("healed node still synchronised")
	}
	before := node.Stats()
	if before.Slots != nw.ASN() {
		t.Fatalf("heal left the nap unsettled: %d slots accounted at slot %d", before.Slots, nw.ASN())
	}
	nw.Step()
	after := node.Stats()
	if after.Slots != before.Slots+1 || after.RadioOnTime-before.RadioOnTime != phy.RadioOnTime(phy.ActivityScan) {
		t.Fatalf("slot after the heal: %d slots, radio on for %v; want one slot of scanning (%v)",
			after.Slots-before.Slots, after.RadioOnTime-before.RadioOnTime, phy.RadioOnTime(phy.ActivityScan))
	}
}
