package core

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// buildWithDownlink boots a DiGS network with the downlink slotframe
// enabled and a gateway wired onto the APs.
func buildWithDownlink(t *testing.T, seed int64) (*sim.Network, *Network, *Gateway) {
	t.Helper()
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, seed)
	macCfg := mac.DefaultConfig()
	macCfg.DownlinkFrameLen = 149
	net, err := Build(nw, DefaultConfig(topo.NumAPs), macCfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(net)
	if _, done := nw.RunUntil(sim.SlotsFor(240*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatal("network did not converge")
	}
	return nw, net, gw
}

func TestGatewayLearnsRoutesFromUplink(t *testing.T) {
	nw, net, gw := buildWithDownlink(t, 21)
	topo := nw.Topology()

	if gw.KnownDevices() != 0 {
		t.Fatal("gateway knows routes before any uplink traffic")
	}

	// Every source sends one reading; the gateway must learn a route to
	// each.
	for i, src := range topo.SuggestedSources {
		nw.Wake(src)
		_ = net.Nodes[src].InjectData(&sim.Frame{
			Origin: src, FlowID: uint16(i + 1), Seq: 0, BornASN: nw.ASN(),
		})
	}
	nw.Run(sim.SlotsFor(30 * time.Second))

	for _, src := range topo.SuggestedSources {
		ap, path, ok := gw.RouteTo(src)
		if !ok {
			t.Fatalf("no route learned to source %d", src)
		}
		if !topo.IsAP(ap) {
			t.Fatalf("route to %d anchored at non-AP %d", src, ap)
		}
		if path[len(path)-1] != src {
			t.Fatalf("route to %d ends at %d", src, path[len(path)-1])
		}
		// No loops in the recorded path.
		seen := map[topology.NodeID]bool{}
		for _, hop := range path {
			if seen[hop] {
				t.Fatalf("route to %d revisits %d: %v", src, hop, path)
			}
			seen[hop] = true
		}
	}
}

func TestDownlinkCommandsReachActuators(t *testing.T) {
	nw, net, gw := buildWithDownlink(t, 21)
	topo := nw.Topology()

	// Uplink first so routes exist.
	for i, src := range topo.SuggestedSources {
		nw.Wake(src)
		_ = net.Nodes[src].InjectData(&sim.Frame{
			Origin: src, FlowID: uint16(i + 1), Seq: 0, BornASN: nw.ASN(),
		})
	}
	nw.Run(sim.SlotsFor(30 * time.Second))

	// Command every source (they are our actuators).
	got := map[topology.NodeID][]byte{}
	for _, src := range topo.SuggestedSources {
		src := src
		if err := net.OnCommand(src, func(_ sim.ASN, f *sim.Frame) {
			got[src] = f.Payload
		}); err != nil {
			t.Fatal(err)
		}
		if err := gw.SendCommand(src, []byte{0x42, byte(src)}); err != nil {
			t.Fatalf("send command to %d: %v", src, err)
		}
	}
	nw.Run(sim.SlotsFor(60 * time.Second))

	delivered := 0
	for _, src := range topo.SuggestedSources {
		payload, ok := got[src]
		if !ok {
			continue
		}
		delivered++
		if len(payload) != 2 || payload[0] != 0x42 || payload[1] != byte(src) {
			t.Fatalf("actuator %d got payload %v", src, payload)
		}
	}
	t.Logf("commands delivered: %d/%d", delivered, len(topo.SuggestedSources))
	if delivered < len(topo.SuggestedSources)-1 {
		t.Fatalf("only %d/%d commands reached their actuators",
			delivered, len(topo.SuggestedSources))
	}
}

func TestSendCommandWithoutRouteFails(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 5)
	macCfg := mac.DefaultConfig()
	macCfg.DownlinkFrameLen = 149
	net, err := Build(nw, DefaultConfig(topo.NumAPs), macCfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(net)
	if err := gw.SendCommand(10, []byte{1}); err == nil {
		t.Fatal("sent a command without any learned route")
	}
}

func TestSendCommandDownlinkDisabled(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 5)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Nodes[1].SendCommand([]topology.NodeID{3}, []byte{1}); err == nil {
		t.Fatal("downlink command accepted with downlink disabled")
	}
}

func TestOnCommandUnknownNode(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 5)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.OnCommand(9999, nil); err == nil {
		t.Fatal("installed a command sink on a non-existent node")
	}
}
