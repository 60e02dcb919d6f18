package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/interference"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// LargeScaleOptions parameterise the Figure 12 simulation study: 150 nodes
// in a 300 m x 300 m field with five Cooja-style disturbers.
type LargeScaleOptions struct {
	Nodes          int
	AreaM          float64
	Disturbers     int
	FlowSets       int
	FlowsPerSet    int
	PacketsPerFlow int
	Seed           int64
}

// DefaultLargeScaleOptions mirrors the paper's setup with an
// interactive-sized flow-set count (paper: 300 flow sets).
func DefaultLargeScaleOptions() LargeScaleOptions {
	return LargeScaleOptions{
		Nodes:          150,
		AreaM:          300,
		Disturbers:     5,
		FlowSets:       10,
		FlowsPerSet:    20,
		PacketsPerFlow: 12,
		Seed:           7,
	}
}

// RunFig12 reproduces Figure 12: DiGS vs Orchestra at 150-node scale with
// periodic wide-band disturbers (10 s packet period per the paper).
func RunFig12(opts LargeScaleOptions) (*InterferenceResult, error) {
	protos := []Protocol{DiGS, Orchestra}
	rs, err := campaign.Map(campaign.New(0), len(protos),
		func(i int) ([]FlowSetResult, error) {
			r, err := runLargeScale(protos[i], opts)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", protos[i], err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	return &InterferenceResult{DiGS: rs[0], Orchestra: rs[1]}, nil
}

func runLargeScale(proto Protocol, opts LargeScaleOptions) ([]FlowSetResult, error) {
	topo := topology.NewRandom(opts.Nodes, opts.AreaM, opts.AreaM, opts.Seed)
	net, err := buildNetwork(proto, topo, opts.Seed)
	if err != nil {
		return nil, err
	}
	nw := net.NW
	// Partial convergence is accepted: a large sparse deployment can have
	// corner stragglers that take tens of minutes, just as physical ones do.
	if _, err := net.Form(context.Background(), nil, 0.98, 8*time.Minute, 30*time.Second); err != nil {
		return nil, err
	}

	// Disturbers: placed at spread-out field devices, toggling on/off
	// every 5 minutes with staggered phases.
	start := nw.ASN()
	for d := 0; d < opts.Disturbers; d++ {
		at := topology.NodeID(topo.NumAPs + 1 + d*(opts.Nodes/opts.Disturbers))
		nw.AddInterferer(&interference.Window{
			Source:   interference.NewCoojaDisturber(topo, at, d),
			StartASN: start,
		})
	}
	nw.Run(sim.SlotsFor(30 * time.Second))

	return runFlowSets(net, FlowSetOptions{
		FlowSets:       opts.FlowSets,
		FlowsPerSet:    opts.FlowsPerSet,
		PacketPeriod:   10 * time.Second,
		PacketsPerFlow: opts.PacketsPerFlow,
		Drain:          20 * time.Second,
		Seed:           opts.Seed,
	})
}

// JoinTimesResult holds Figure 13's joining-time samples per protocol.
type JoinTimesResult struct {
	DiGS      []time.Duration
	Orchestra []time.Duration
}

// RunFig13 reproduces Figure 13: the time each of Testbed A's field
// devices needs to synchronise and select its preferred parent(s), under
// both stacks, from a cold start. The two protocol runs execute on the
// process-wide campaign pool.
func RunFig13(seed int64) (*JoinTimesResult, error) {
	protos := []Protocol{DiGS, Orchestra}
	rs, err := campaign.Map(campaign.New(0), len(protos),
		func(i int) ([]time.Duration, error) {
			return runJoinTimes(protos[i], seed)
		})
	if err != nil {
		return nil, err
	}
	return &JoinTimesResult{DiGS: rs[0], Orchestra: rs[1]}, nil
}

func runJoinTimes(proto Protocol, seed int64) ([]time.Duration, error) {
	topo := testbedATopo()
	net, err := buildNetwork(proto, topo, seed)
	if err != nil {
		return nil, err
	}
	if _, err := net.Form(context.Background(), nil, 1.0, 300*time.Second, 0); err != nil {
		return nil, fmt.Errorf("%v: %w", proto, err)
	}
	var times []time.Duration
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		at, ok := net.router(i).FirstParentAt()
		if !ok {
			return nil, fmt.Errorf("%v: node %d joined without a join time", proto, i)
		}
		times = append(times, sim.TimeAt(at))
	}
	return times, nil
}
