package scenario

import (
	"math/rand"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/whart"
)

// stackRegistry holds the five protocol stacks, one line each: the stack
// package's own Codec names the stack (the snapshot layer decodes its
// state under the same name), the builder picks its configuration. Build
// dispatches through it, so the CLIs, the spec validator and the snapshot
// layer all agree on the same protocol name set without per-binary
// switches; adding a stack is its own package plus one line here.
var stackRegistry = map[string]StackBuilder{
	core.Codec.Protocol:               buildDiGS,
	orchestra.Codec.Protocol:          buildOrchestra,
	whart.Codec.Protocol:              buildWHART,
	controller.SDNCodec.Protocol:      buildSDN,
	controller.AdaptiveCodec.Protocol: buildAdaptive,
}

func buildDiGS(nw *sim.Network, p Params, macCfg mac.Config) (stack.Bundle, error) {
	// ScaledConfig == DefaultConfig within the paper envelope; only
	// generated massive-scale deployments get re-dimensioned frames.
	return core.Build(nw, core.ScaledConfig(p.Topology.NumAPs, p.Topology.N()), macCfg, p.Seed)
}

func buildOrchestra(nw *sim.Network, p Params, macCfg mac.Config) (stack.Bundle, error) {
	return orchestra.Build(nw, orchestra.DefaultConfig(), macCfg, p.Seed)
}

func buildWHART(nw *sim.Network, p Params, macCfg mac.Config) (stack.Bundle, error) {
	topo := p.Topology
	// The Network Manager computes the TDMA schedule for its flow set up
	// front; a random-flows request therefore changes the build (and its
	// ConfigHash), unlike for the autonomous stacks.
	srcs := topo.SuggestedSources
	if p.Flows > 0 {
		rf, err := flows.RandomSet(topo, p.Flows, p.Period, rand.New(rand.NewSource(p.Seed)))
		if err != nil {
			return nil, err
		}
		srcs = nil
		for _, f := range rf {
			srcs = append(srcs, f.Source)
		}
	}
	var fl []whart.Flow
	for i, src := range srcs {
		fl = append(fl, whart.Flow{
			ID: uint16(i + 1), Source: src, PeriodSlots: sim.SlotsFor(p.Period),
		})
	}
	return whart.Build(nw, fl, macCfg)
}

func buildSDN(nw *sim.Network, _ Params, macCfg mac.Config) (stack.Bundle, error) {
	return controller.BuildSDN(nw, controller.DefaultSDNConfig(), macCfg)
}

func buildAdaptive(nw *sim.Network, p Params, macCfg mac.Config) (stack.Bundle, error) {
	return controller.BuildAdaptive(nw, controller.DefaultAdaptiveConfig(), macCfg, p.Seed)
}
