package stack_test

import (
	"testing"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/mac"
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

// JoinedCount is the RunUntil predicate, evaluated once per slot during
// formation: through the type-erased bundle it must still not allocate.
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
