package core

import (
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// TestSendCommandErrorNamesTheDevice pins the error contract: callers route
// the message to operators, so it must identify the unreachable device and
// why the gateway cannot reach it.
func TestSendCommandErrorNamesTheDevice(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 7)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(net)
	err = gw.SendCommand(42, []byte{1})
	if err == nil {
		t.Fatal("SendCommand succeeded with no learned routes")
	}
	if !strings.Contains(err.Error(), "no route to device 42") {
		t.Fatalf("error does not name the device: %v", err)
	}
}

// TestOnCommandErrorNamesTheNode pins the OnCommand error contract.
func TestOnCommandErrorNamesTheNode(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 7)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	err = net.OnCommand(9999, nil)
	if err == nil {
		t.Fatal("OnCommand accepted a non-existent node")
	}
	if !strings.Contains(err.Error(), "no node 9999") {
		t.Fatalf("error does not name the node: %v", err)
	}
}
