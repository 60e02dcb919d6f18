// Quickstart: the smallest useful DiGS network.
//
// It builds the 20-node half testbed, lets the distributed graph routing
// converge, prints the routing graph every node computed for itself (best
// and backup parent — no central manager anywhere), then pushes a few
// sensor readings to the access points.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A deployment is just node placements plus radio parameters.
	topo := topology.HalfTestbedA()
	fmt.Printf("deployment %q: %d devices, %d access points\n",
		topo.Name, topo.N(), topo.NumAPs)

	// One simulated network, one DiGS stack per device.
	sc, err := scenario.Build(scenario.Params{Topology: topo, Protocol: "digs", Seed: 42})
	if err != nil {
		return err
	}
	net := sc.Bundle.(*core.Network)

	// Let the devices join: they scan for beacons, synchronise, and pick
	// their primary and backup parents from join-in advertisements —
	// Algorithm 1 of the paper, running independently on every node. Then
	// give the backup parents 30 s to thicken.
	formed, err := sc.Form(context.Background(), nil, 1.0, 5*time.Minute, 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("all devices joined after %v\n\n", sim.TimeAt(formed.Slots))

	// Every field device has computed its own graph routes.
	fmt.Println("self-computed routing graph (primary / backup parent):")
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		r := net.Stacks[i].Router()
		best, second := r.Parents()
		backup := "-"
		if second != 0 {
			backup = fmt.Sprintf("%d", second)
		}
		fmt.Printf("  node %2d -> %2d (backup %s), rank %d\n", i, best, backup, r.Rank())
	}

	// Send ten sensor readings from the farthest device.
	col := metrics.NewCollector()
	sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) {
		col.Delivered(f.FlowID, f.Seq, asn)
		fmt.Printf("  AP received reading #%d after %v\n",
			f.Seq, sim.TimeAt(asn-f.BornASN))
	})
	src := topology.NodeID(topo.N()) // the last (deepest) device
	fmt.Printf("\nsending 10 readings from node %d:\n", src)
	for seq := uint16(0); seq < 10; seq++ {
		col.Sent(1, seq, sc.NW.ASN())
		if err := sc.Inject(src, 1, seq); err != nil {
			return err
		}
		sc.NW.Run(sim.SlotsFor(2 * time.Second))
	}
	sc.NW.Run(sim.SlotsFor(10 * time.Second))

	fmt.Printf("\ndelivered %d/10 (PDR %.0f%%)\n", col.DeliveredCount(), 100*col.PDR())
	return nil
}
