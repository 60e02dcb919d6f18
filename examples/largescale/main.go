// Large scale: the paper's Section VII-D study in miniature — 150 field
// devices in a 300 m x 300 m area with five wide-band disturbers toggling
// every five minutes, DiGS vs Orchestra side by side.
//
//	go run ./examples/largescale
//
// With -nodes, the example instead runs the massive-scale engine on a
// procedurally generated deployment (sparse neighbor structure, per-node
// napping) — far beyond what the dense matrix could hold:
//
//	go run ./examples/largescale -nodes 10000 -gen plant
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/experiments"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
)

func main() {
	nodes := flag.Int("nodes", 0,
		"run a generated topology of this size on the scale engine instead of the paper study (try 10000)")
	gen := flag.String("gen", "plant", "generator kind for -nodes: plant, campus or field")
	seed := flag.Int64("seed", 3, "simulation seed (and topology seed for -nodes)")
	flag.Parse()

	var err error
	if *nodes > 0 {
		err = runScale(*gen, *nodes, *seed)
	} else {
		err = runPaperStudy()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "largescale:", err)
		os.Exit(1)
	}
}

func runPaperStudy() error {
	opts := experiments.DefaultLargeScaleOptions()
	opts.FlowSets = 4 // keep the example interactive; digs-bench -fig 12 -full scales up
	fmt.Printf("150 nodes over %.0f m x %.0f m, %d disturbers, %d flow sets x %d flows\n",
		opts.AreaM, opts.AreaM, opts.Disturbers, opts.FlowSets, opts.FlowsPerSet)
	fmt.Println("running both protocol stacks (this takes a minute)...")

	res, err := experiments.RunFig12(opts)
	if err != nil {
		return err
	}

	report := func(name string, rs []experiments.FlowSetResult) {
		pdrs := experiments.PDRs(rs)
		lats := experiments.AllLatenciesMs(rs)
		fmt.Printf("%-10s PDR mean %.3f (worst set %.3f), median latency %.0f ms, "+
			"duty/packet %.4f%%\n",
			name, metrics.Mean(pdrs), metrics.Min(pdrs), metrics.Quantile(lats, 0.5),
			metrics.Quantile(experiments.DutiesPerPacket(rs), 0.5))
	}
	report("DiGS", res.DiGS)
	report("Orchestra", res.Orchestra)
	return nil
}

// runScale demonstrates the massive-scale path: a generated deployment on
// the sparse medium, converged and then measured over one flow window.
func runScale(gen string, nodes int, seed int64) error {
	topoName := fmt.Sprintf("gen-%s-%d-%d", gen, nodes, seed)
	sc, err := scenario.Build(scenario.Params{
		TopologyName: topoName,
		Protocol:     core.Protocol,
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	topo := sc.NW.Topology()
	n := topo.N()
	fmt.Printf("%s: %d nodes (%d APs), %d directed links\n",
		topoName, n, topo.NumAPs, topo.SparseView().Links())

	fmt.Println("converging (structurally-idle nodes nap between their slots)...")
	start := time.Now()
	// The join tail is long at scale: the generators keep guard-band
	// links, so the last few nodes hear a beacon only every ~100k slots.
	budget := sim.TimeAt(120_000 + int64(nodes)*30)
	if _, err := sc.Form(context.Background(), nil, 1.0, budget, 0); err != nil {
		fmt.Printf("  %v; measuring the part that formed\n", err)
	}
	fmt.Printf("  %d/%d joined at slot %d (%.1fs wall, %.0f slots/s)\n",
		sc.Joined(), n, sc.NW.ASN(), time.Since(start).Seconds(),
		float64(sc.NW.ASN())/time.Since(start).Seconds())

	col := metrics.NewCollector()
	fset := flows.FixedSet(topo.SuggestedSources, 2*time.Second)
	const packets = 20
	sc.Drive(fset, packets, 0, col)
	// Drain long enough for the deepest paths: DiGS forwards one hop per
	// app slotframe, and ScaledConfig's frame grows with N, so budget
	// ~60 hops of frames on top of the injection span.
	drain := 60 * core.ScaledConfig(topo.NumAPs, n).AppFrameLen
	window := sim.SlotsFor(2*time.Second*packets) + sim.ASN(drain)
	start = time.Now()
	sc.NW.Run(window)
	el := time.Since(start)

	lats := col.Latencies()
	ms := make([]float64, len(lats))
	for i, l := range lats {
		ms[i] = float64(l.Milliseconds())
	}
	fmt.Printf("flow window: %d slots in %.1fs wall (%.0f slots/s)\n",
		window, el.Seconds(), float64(window)/el.Seconds())
	fmt.Printf("  %d flows x %d packets: PDR %.3f, median latency %.0f ms\n",
		len(fset), packets, col.PDR(), metrics.Quantile(ms, 0.5))
	return nil
}
