package scenario

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/whart"
)

const testTopo = "half-testbed-a"

// form runs the scenario through the formation phase every consumer uses
// before measuring — full join, 30 s settling margin — warm-starting from
// the cache when one is given.
func form(sc *Scenario, cache *snapshot.Cache) (Formation, error) {
	return sc.Form(context.Background(), cache, 1.0, 6*time.Minute, 30*time.Second)
}

// window is what a measurement window reports: its counts and every
// delivered packet's latency.
type window struct {
	Sent, Delivered         int
	OutOfWindow, Duplicates int64
	Latencies               []time.Duration
}

// runTraffic drives a fixed-source traffic window over the scenario with a
// JSONL tracer and a metrics collector attached, and returns both outputs:
// the complete telemetry stream and the measurement window, comparable
// between two runs that should be identical.
func runTraffic(sc *Scenario) ([]byte, window, error) {
	var trace bytes.Buffer
	obs, err := sc.Observe(telemetry.NewJSONL(&trace), false, nil)
	if err != nil {
		return nil, window{}, err
	}
	col := metrics.NewCollector()
	const packets = 20
	period := time.Second
	sc.Drive(flows.FixedSet(sc.Params.Topology.SuggestedSources, period), packets, 0, col)
	sc.NW.Run(sim.SlotsFor(period*packets + 15*time.Second))
	sc.OnDeliver(nil)
	if err := obs.Close(); err != nil {
		return nil, window{}, err
	}
	return trace.Bytes(), window{col.SentCount(), col.DeliveredCount(),
		col.OutOfWindowCount(), col.DuplicateCount(), col.Latencies()}, nil
}

// TestResumeBitIdentity is the subsystem's core promise, per protocol:
// snapshot at S, restore into a fresh process (modelled by a fresh build),
// continue to T — and the trace, the metrics window and the complete final
// state are bit-identical to the run that never stopped.
func TestResumeBitIdentity(t *testing.T) {
	for _, proto := range []string{core.Protocol, orchestra.Protocol,
		whart.Protocol, controller.SDNProtocol, controller.AdaptiveProtocol} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			scA, err := Build(Params{TopologyName: testTopo, Protocol: proto, Seed: 1, Period: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := form(scA, nil); err != nil {
				t.Fatal(err)
			}
			snapS, err := scA.Take("formed+30s", nil)
			if err != nil {
				t.Fatal(err)
			}
			wireS, err := snapshot.Encode(snapS)
			if err != nil {
				t.Fatal(err)
			}

			// Straight-through: keep running A to T.
			traceA, colA, err := runTraffic(scA)
			if err != nil {
				t.Fatal(err)
			}
			finalA, err := scA.Take("end", nil)
			if err != nil {
				t.Fatal(err)
			}
			wireA, err := snapshot.Encode(finalA)
			if err != nil {
				t.Fatal(err)
			}

			// Resumed: decode the wire form into a fresh build, continue to T.
			decoded, err := snapshot.Decode(wireS)
			if err != nil {
				t.Fatal(err)
			}
			scB, err := BuildFromMeta(decoded.Meta)
			if err != nil {
				t.Fatal(err)
			}
			if err := scB.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			traceB, colB, err := runTraffic(scB)
			if err != nil {
				t.Fatal(err)
			}
			finalB, err := scB.Take("end", nil)
			if err != nil {
				t.Fatal(err)
			}
			wireB, err := snapshot.Encode(finalB)
			if err != nil {
				t.Fatal(err)
			}

			if snapS.Meta.Slot == 0 {
				t.Fatal("snapshot taken at slot 0: formation did not run")
			}
			if len(traceA) == 0 || colA.Sent == 0 {
				t.Fatalf("traffic window produced no evidence (trace %dB, %v)", len(traceA), colA)
			}
			if !bytes.Equal(traceA, traceB) {
				t.Errorf("telemetry traces diverge: %d vs %d bytes", len(traceA), len(traceB))
			}
			if !reflect.DeepEqual(colA, colB) {
				t.Errorf("metrics windows diverge: %+v vs %+v", colA, colB)
			}
			if !bytes.Equal(wireA, wireB) {
				d := snapshot.Diff(finalA, finalB)
				max := len(d)
				if max > 10 {
					d = d[:10]
				}
				t.Errorf("final snapshots diverge (%d fields):\n%v", max, d)
			}
		})
	}
}

// runChaos applies the Figure 8 jammer plan to an already-formed scenario
// and returns the recovery report plus run totals — the digs-chaos output
// a warm-started run must reproduce exactly.
func runChaos(sc *Scenario) ([]chaos.FaultReport, int, int, error) {
	topo := sc.Params.Topology
	plan := chaos.Fig8JammerPlan(topo, sc.Params.Seed)
	rec := chaos.NewRecovery()
	obs, err := sc.Observe(rec, false, plan)
	if err != nil {
		return nil, 0, 0, err
	}
	period := time.Second
	window := plan.Horizon() + 60*time.Second
	sc.Drive(flows.FixedSet(topo.SuggestedSources, period), int(window/period), 0, nil)
	sc.NW.Run(sim.SlotsFor(window + 30*time.Second))
	if err := obs.Close(); err != nil {
		return nil, 0, 0, err
	}
	return rec.Report(), rec.Generated(), rec.Undelivered(), nil
}

// TestWarmStartChaosRecovery proves the warm-start path end to end: a
// chaos run branched off a cached formation snapshot produces exactly the
// recovery table of the run that formed the network itself.
func TestWarmStartChaosRecovery(t *testing.T) {
	cache := &snapshot.Cache{Dir: t.TempDir()}
	build := func() *Scenario {
		sc, err := Build(Params{TopologyName: testTopo, Protocol: core.Protocol, Seed: 3, Period: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	cold := build()
	coldForm, err := form(cold, cache)
	if err != nil {
		t.Fatal(err)
	}
	if coldForm.Warm {
		t.Fatal("first run must miss the empty cache")
	}
	coldRep, coldGen, coldLost, err := runChaos(cold)
	if err != nil {
		t.Fatal(err)
	}

	warm := build()
	warmForm, err := form(warm, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !warmForm.Warm {
		t.Fatal("second run must hit the cache")
	}
	if warmForm.Slots != coldForm.Slots || warmForm.Slots == 0 {
		t.Fatalf("formation metadata lost: %d vs %d", warmForm.Slots, coldForm.Slots)
	}
	warmRep, warmGen, warmLost, err := runChaos(warm)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Errorf("recovery tables diverge:\ncold: %+v\nwarm: %+v", coldRep, warmRep)
	}
	if coldGen != warmGen || coldLost != warmLost {
		t.Errorf("run totals diverge: cold %d/%d, warm %d/%d", coldLost, coldGen, warmLost, warmGen)
	}
}

// TestWarmStartCampaignDeterminism runs the same warm-started campaign at
// 1, 2, 4 and 8 workers and demands byte-identical output from all of
// them — including the first pass, which forms networks and populates the
// cache, so resumed campaigns are proven identical to uninterrupted ones
// at every worker count.
func TestWarmStartCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker campaign sweep")
	}
	cache := &snapshot.Cache{Dir: t.TempDir()}
	protos := []string{core.Protocol, orchestra.Protocol,
		controller.SDNProtocol, controller.AdaptiveProtocol}

	runCampaign := func(workers int) ([]string, error) {
		return campaign.Map(campaign.New(workers), len(protos)*2, func(i int) (string, error) {
			sc, err := Build(Params{
				TopologyName: testTopo,
				Protocol:     protos[i%len(protos)],
				Seed:         5 + int64(i/len(protos)),
				Period:       time.Second,
			})
			if err != nil {
				return "", err
			}
			formed, err := form(sc, cache)
			if err != nil {
				return "", err
			}
			trace, col, err := runTraffic(sc)
			if err != nil {
				return "", err
			}
			final, err := sc.Take("end", nil)
			if err != nil {
				return "", err
			}
			wire, err := snapshot.Encode(final)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("formed=%d trace=%d delivered=%d state=%x",
				formed.Slots, len(trace), col.Delivered, stack.HashConfig(wire)), nil
		})
	}

	var first []string
	for _, workers := range []int{1, 2, 4, 8} {
		out, err := runCampaign(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = out
			continue
		}
		if !reflect.DeepEqual(first, out) {
			t.Errorf("workers=%d output diverges:\nfirst: %v\n  now: %v", workers, first, out)
		}
	}
}
