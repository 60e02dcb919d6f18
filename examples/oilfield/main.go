// Oil field monitoring: the paper's motivating scenario — many battery
// powered wellhead sensors spread over a large field, reporting through a
// WSAN while co-located WiFi backhaul interferes.
//
// The example deploys 80 sensors over a 250 m x 250 m field, runs DiGS,
// switches on WiFi-like interference near the gateway, and shows how graph
// routing keeps the well data flowing while the interference is on.
//
//	go run ./examples/oilfield
package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/interference"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oilfield:", err)
		os.Exit(1)
	}
}

// nearestToAPs returns the n field devices closest to any access point.
func nearestToAPs(topo *topology.Topology, n int) []topology.NodeID {
	type cand struct {
		id topology.NodeID
		d  float64
	}
	var cands []cand
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		best := math.MaxFloat64
		for _, ap := range topo.APs() {
			if d := topo.Distance(id, ap); d < best {
				best = d
			}
		}
		cands = append(cands, cand{id, best})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	out := make([]topology.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].id
	}
	return out
}

func run() error {
	topo := topology.NewRandom(80, 250, 250, 2026)
	fmt.Printf("oil field: %d wellhead sensors over %.0f m x %.0f m, 2 gateway APs\n",
		topo.N()-topo.NumAPs, 250.0, 250.0)

	sc, err := scenario.Build(scenario.Params{Topology: topo, Protocol: "digs", Seed: 2026})
	if err != nil {
		return err
	}
	if _, err := sc.Form(context.Background(), nil, 1.0, 6*time.Minute, 30*time.Second); err != nil {
		return fmt.Errorf("field network did not converge: %w", err)
	}
	fmt.Println("field network formed")

	// Pick twelve wells to report pressure every 10 s.
	rng := rand.New(detrand.New(7))
	wells, err := flows.RandomSet(topo, 12, 10*time.Second, rng)
	if err != nil {
		return err
	}

	seqBase := uint16(0)
	measure := func(label string, packets int) {
		col := metrics.NewCollector()
		sc.Drive(wells, packets, seqBase, col)
		seqBase += uint16(packets) // end-to-end dedupe needs unique seqs
		sc.NW.Run(sim.SlotsFor(10*time.Second*time.Duration(packets) + 20*time.Second))
		lats := metrics.DurationsToMillis(col.Latencies())
		fmt.Printf("%-28s PDR %.3f, median latency %.0f ms\n",
			label, col.PDR(), metrics.Quantile(lats, 0.5))
	}

	// Phase 1: clean spectrum.
	measure("clean spectrum:", 12)

	// Phase 2: the site's WiFi backhaul comes up near the gateway. Pick
	// the two field devices closest to the APs as the interferer sites.
	jammers := nearestToAPs(topo, 2)
	for j, at := range jammers {
		sc.NW.AddInterferer(&interference.Window{
			Source:   interference.NewWiFiJammer(topo, at, []int{1, 6}[j], int64(j)+9),
			StartASN: sc.NW.ASN(),
		})
	}
	fmt.Printf("WiFi backhaul interference on near the gateway (at wells %v)\n", jammers)
	// Let the distributed routing adapt: the estimators learn from live
	// traffic, so keep the wells reporting while they re-route.
	measure("during adaptation:", 12)
	measure("after re-routing:", 12)

	// Show that wells near the interference rerouted: count devices whose
	// primary parent changed since formation is visible via the parent
	// change counters.
	net := sc.Bundle.(*core.Network)
	changes := int64(0)
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		changes += net.Stacks[i].Router().ParentChanges()
	}
	fmt.Printf("total distributed route adaptations so far: %d (no manager involved)\n", changes)
	return nil
}
