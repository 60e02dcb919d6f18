package experiments

import (
	"time"

	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/whart"
)

// RunWhartFailure runs the executable centralized baseline through the
// node-failure scenario and returns its PDR before and after its busiest
// primary router dies. The static schedule never recovers — the contrast
// the paper's Figure 3 motivation builds on.
func RunWhartFailure(seed int64) (clean, failed float64, err error) {
	// The default 5 s period gives the manager 500-slot flows from the
	// suggested sources.
	sc, err := scenario.Build(scenario.Params{Topology: testbedATopo(), Protocol: whart.Protocol, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	topo, nw, fl := sc.Params.Topology, sc.NW, sc.FlowSet
	nw.Run(sim.SlotsFor(60 * time.Second)) // time sync

	// Every flow generates in the same slot, one packet per period: the
	// manager's schedule is built for exactly this cadence, so the flows
	// are not staggered the way Drive staggers them.
	window := func(seqBase uint16) float64 {
		col := metrics.NewCollector()
		sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
		for p := 0; p < 12; p++ {
			for _, f := range fl {
				seq := seqBase + uint16(p)
				col.Sent(f.ID, seq, nw.ASN())
				_ = sc.Inject(f.Source, f.ID, seq) // a full queue drops it: counted lost
			}
			nw.Run(sim.SlotsFor(sc.Params.Period))
		}
		nw.Run(sim.SlotsFor(15 * time.Second))
		sc.OnDeliver(nil)
		return col.PDR()
	}

	clean = window(0)

	// Kill the most-used primary router.
	routes := sc.Bundle.(*whart.Network).Routes
	use := map[topology.NodeID]int{}
	for _, f := range fl {
		cur := f.Source
		for !topo.IsAP(cur) {
			use[routes.Best[cur]]++
			cur = routes.Best[cur]
		}
	}
	var victim topology.NodeID
	most := 0
	for id, n := range use {
		if !topo.IsAP(id) && n > most {
			victim, most = id, n
		}
	}
	if victim != 0 {
		nw.Fail(victim)
	}
	failed = window(1000)
	return clean, failed, nil
}
