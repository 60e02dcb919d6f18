package experiments

import (
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/whart"
)

// RunWhartFailure runs the executable centralized baseline through the
// node-failure scenario and returns its PDR before and after its busiest
// primary router dies. The static schedule never recovers — the contrast
// the paper's Figure 3 motivation builds on.
func RunWhartFailure(seed int64) (clean, failed float64, err error) {
	topo := testbedATopo()
	nw := sim.NewNetwork(topo, seed)
	fl := make([]whart.Flow, 0, len(topo.SuggestedSources))
	for i, src := range topo.SuggestedSources {
		fl = append(fl, whart.Flow{ID: uint16(i + 1), Source: src, PeriodSlots: 500})
	}
	net, err := whart.Build(nw, fl, mac.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	nw.Run(sim.SlotsFor(60 * time.Second)) // time sync

	window := func(seqBase uint16) float64 {
		col := metrics.NewCollector()
		net.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
		for p := 0; p < 12; p++ {
			for _, f := range fl {
				seq := seqBase + uint16(p)
				col.Sent(f.ID, seq, nw.ASN())
				nw.Wake(f.Source)
				_ = net.Nodes[f.Source].InjectData(&sim.Frame{
					Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: nw.ASN(),
				})
			}
			nw.Run(500)
		}
		nw.Run(sim.SlotsFor(15 * time.Second))
		net.OnDeliver(nil)
		return col.PDR()
	}

	clean = window(0)

	// Kill the most-used primary router.
	use := map[topology.NodeID]int{}
	for _, f := range fl {
		cur := f.Source
		for !topo.IsAP(cur) {
			use[net.Routes.Best[cur]]++
			cur = net.Routes.Best[cur]
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
