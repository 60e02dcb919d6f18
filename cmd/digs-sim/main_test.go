package main

import (
	"bytes"
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

// TestSpecFlowsMatchFlagPath: a WirelessHART spec builds the Network
// Manager's schedule for the flows it drives, as the flag path does — a
// -flows count on half of Testbed A, where every packet arrives, and the
// default random set on random-150, which suggests no sources — so both
// deliver; and a warm-started run of the spec encodes to the cold run's
// bytes.
func TestSpecFlowsMatchFlagPath(t *testing.T) {
	for _, c := range []struct {
		topology string
		flows    int
		wantAll  int // packets sent, all delivered; 0 = some delivered
	}{{"half-testbed-a", 6, 72}, {"random-150", 0, 0}} {
		opts := options{
			topology: c.topology, protocol: "whart", flows: c.flows,
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
		var encoded [2][]byte
		for i := range encoded {
			res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{Warm: cache})
			if err != nil {
				t.Fatal(err)
			}
			if encoded[i], err = res.Encode(); err != nil {
				t.Fatalf("%s: %v", c.topology, err)
			}
			if i == 0 && (res.Sent != sum.Sent || res.Delivered != sum.Delivered || res.PDR != sum.PDR) {
				t.Errorf("%s: spec delivered %d of %d (PDR %v), flag path %d of %d",
					c.topology, res.Delivered, res.Sent, res.PDR, sum.Delivered, sum.Sent)
			}
		}
		if sum.Delivered == 0 || c.wantAll > 0 && (sum.Sent != c.wantAll || sum.Delivered != sum.Sent) {
			t.Fatalf("%s -flows %d delivered %d of %d", c.topology, c.flows, sum.Delivered, sum.Sent)
		}
		if !bytes.Equal(encoded[0], encoded[1]) {
			t.Errorf("%s: warm %s, cold %s", c.topology, encoded[1], encoded[0])
		}
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
