package main

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
)

// TestFlagPathMatchesRunSpec: the flag path composes the same phases
// RunSpec does, so for every registered stack its summary is the RunSpec
// result of the equivalent spec — with and without jammers.
func TestFlagPathMatchesRunSpec(t *testing.T) {
	for _, proto := range scenario.RegisteredStacks() {
		for _, jammers := range []int{0, 2} {
			opts := options{
				topology: "half-testbed-a", protocol: proto, jammers: jammers,
				duration: 30 * time.Second, period: 5 * time.Second,
			}
			sum, err := runScenario(opts, 4, io.Discard, 0, nil)
			if err != nil {
				t.Fatalf("%s, %d jammers: %v", proto, jammers, err)
			}
			res, _, err := scenario.RunSpec(context.Background(), scenario.Spec{
				Topology: opts.topology, Protocol: proto, Seed: 4, Jammers: jammers,
				Period: scenario.Duration(opts.period), Window: scenario.Duration(opts.duration),
			}, scenario.RunOpts{})
			if err != nil {
				t.Fatalf("%s, %d jammers: RunSpec: %v", proto, jammers, err)
			}
			if sum.Sent == 0 || sum.Delivered == 0 {
				t.Fatalf("%s, %d jammers: nothing measured: %+v", proto, jammers, sum)
			}
			if sum.Formation != sim.TimeAt(res.FormationSlots) || sum.Sent != res.Sent ||
				sum.Delivered != res.Delivered || sum.PDR != res.PDR ||
				sum.LatMedian != res.LatencyMedianMs || sum.LatP90 != res.LatencyP90Ms ||
				sum.LatMax != res.LatencyMaxMs || sum.PowerMW != res.PowerPerPacketMW {
				t.Errorf("%s, %d jammers: flag path %+v, RunSpec %+v", proto, jammers, *sum, *res)
			}
		}
	}
}

// TestSpecFlowsMatchFlagPath: a WirelessHART spec naming a flow count
// builds the Network Manager's schedule for the flows it drives, as -flows
// does, so both deliver every packet; and a warm-started run of that spec
// gives the cold run's result.
func TestSpecFlowsMatchFlagPath(t *testing.T) {
	opts := options{
		topology: "half-testbed-a", protocol: "whart", flows: 6,
		duration: 60 * time.Second, period: 5 * time.Second,
	}
	sum, err := runScenario(opts, 1, io.Discard, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{
		Topology: opts.topology, Protocol: opts.protocol, Seed: 1, Flows: opts.flows,
		Period: scenario.Duration(opts.period), Window: scenario.Duration(opts.duration),
	}
	cache := &snapshot.Cache{Dir: t.TempDir()}
	var results [2]*scenario.Result
	for i := range results {
		res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{Warm: cache})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	cold, warm := results[0], results[1]
	if sum.Sent != 72 || sum.Delivered != sum.Sent {
		t.Fatalf("-flows 6 delivered %d of %d, want 72 of 72", sum.Delivered, sum.Sent)
	}
	if cold.Sent != sum.Sent || cold.Delivered != sum.Delivered || cold.PDR != sum.PDR {
		t.Errorf("spec delivered %d of %d (PDR %v), -flows 6 %d of %d", cold.Delivered, cold.Sent, cold.PDR, sum.Delivered, sum.Sent)
	}
	if *warm != *cold {
		t.Errorf("warm %+v, cold %+v", *warm, *cold)
	}
}

// TestGenPlantFormsToSpecTarget: the flag path forms a generated plant to
// the target a spec naming it gets (join 0.9 within 30 min), so digs-sim
// runs the 1 000-node plant instead of failing formation at join 1.0.
func TestGenPlantFormsToSpecTarget(t *testing.T) {
	if err := run([]string{"-topology", "gen-plant-1000-3", "-duration", "10s"}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedSourceGeneratesNothing: -fail on a flow source stops that
// flow's generation at the failure (half the window in), so its remaining
// packets are neither sent nor counted lost.
func TestFailedSourceGeneratesNothing(t *testing.T) {
	opts := options{
		topology: "half-testbed-a", protocol: "digs",
		duration: 60 * time.Second, period: 5 * time.Second,
	}
	whole, err := runScenario(opts, 4, io.Discard, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.failNode = 20 // the last suggested source
	failed, err := runScenario(opts, 4, io.Discard, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8 flows x 12 packets; node 20's last six fall after the failure.
	if whole.Sent != 96 || failed.Sent != 90 {
		t.Fatalf("sent %d without the failure and %d with it, want 96 and 90", whole.Sent, failed.Sent)
	}
}
