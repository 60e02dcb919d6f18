package experiments

import (
	"context"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
)

// FailureOptions parameterise the Figure 11 node-failure study.
type FailureOptions struct {
	// Victims is how many router nodes are killed in turn (paper: 4).
	Victims int
	// Repetitions of the whole experiment (paper: 34).
	Repetitions int
	Seed        int64

	// CacheDir names a snapshot cache directory; see
	// InterferenceOptions.CacheDir.
	CacheDir string
}

// DefaultFailureOptions sizes the campaign for interactive use; raise
// Repetitions to the paper's 34 for full fidelity.
func DefaultFailureOptions() FailureOptions {
	return FailureOptions{Victims: 4, Repetitions: 4, Seed: 1}
}

// FailureResult is one protocol's node-failure outcome.
type FailureResult struct {
	// FlowPDRs has one entry per (repetition x victim x flow): the flow's
	// delivery rate while that victim was down (Figure 11(a) samples).
	FlowPDRs []float64
	// DisconnectedFlows counts flows with zero deliveries during a
	// failure window.
	DisconnectedFlows int
	// TotalFlows counts measured (flow, victim) pairs.
	TotalFlows int
	// PowerPerPacket samples (Figure 11(c)).
	PowerPerPacket []float64
}

// RunFig11 reproduces Figure 11(a)/(c): kill busy router nodes in turn and
// measure each data flow's PDR and the network's power per received packet
// while the victim is down, for both protocols.
func RunFig11(opts FailureOptions) (digs, orch *FailureResult, err error) {
	// One flat job list across both protocols keeps a single bounded pool
	// busy instead of two half-idle nested ones.
	protos := []Protocol{DiGS, Orchestra}
	reps := opts.Repetitions
	parts, err := campaign.Map(campaign.New(0), len(protos)*reps,
		func(i int) (*FailureResult, error) {
			seed := opts.Seed*997 + int64(i%reps)
			return runFailureOnce(protos[i/reps], seed, opts.Victims, opts.CacheDir)
		})
	if err != nil {
		return nil, nil, err
	}
	digs = mergeFailureResults(parts[:reps])
	orch = mergeFailureResults(parts[reps:])
	return digs, orch, nil
}

// mergeFailureResults concatenates per-repetition results in repetition
// order, reproducing what the historical sequential loop accumulated.
func mergeFailureResults(parts []*FailureResult) *FailureResult {
	out := &FailureResult{}
	for _, p := range parts {
		out.FlowPDRs = append(out.FlowPDRs, p.FlowPDRs...)
		out.DisconnectedFlows += p.DisconnectedFlows
		out.TotalFlows += p.TotalFlows
		out.PowerPerPacket = append(out.PowerPerPacket, p.PowerPerPacket...)
	}
	return out
}

// runFailureOnce runs one repetition and returns its partial result.
func runFailureOnce(proto Protocol, seed int64, victims int, cacheDir string) (*FailureResult, error) {
	out := &FailureResult{}
	topo := testbedATopo()
	net, err := buildNetwork(proto, topo, seed)
	if err != nil {
		return nil, err
	}
	nw := net.NW
	if _, err := net.Form(context.Background(), formationCache(cacheDir), 1.0,
		240*time.Second, 60*time.Second); err != nil {
		return nil, err
	}

	fset := flows.FixedSet(topo.SuggestedSources, 5*time.Second)
	sources := map[topology.NodeID]bool{}
	for _, f := range fset {
		sources[f.Source] = true
	}

	for v := 0; v < victims; v++ {
		// Priming round before each kill: run unmeasured traffic and use
		// the forwarding-count deltas to find the router currently
		// carrying the most flow traffic (lifetime counters go stale once
		// earlier victims reshape the graph).
		fwdBefore := forwardedCounts(net, topo.N())
		net.Drive(fset, 6, uint16(50000+v*100), nil)
		nw.Run(sim.SlotsFor(45 * time.Second))
		victim := pickVictimByDelta(nw, net, sources, fwdBefore)
		if victim == 0 {
			break // no further field-device routers to kill
		}
		nw.Fail(victim)

		col := metrics.NewCollector()
		const packets = 12
		// Unique sequence range per victim window (duplicate suppression
		// is end-to-end on (origin, flow, seq)).
		net.Drive(fset, packets, uint16((v+1)*100), col)
		before, _ := net.Energy()
		start := nw.ASN()
		nw.Run(sim.SlotsFor(5*time.Second*packets + 15*time.Second))
		after, _ := net.Energy()
		net.OnDeliver(nil)

		for _, f := range fset {
			pdr := col.FlowPDR(f.ID)
			out.FlowPDRs = append(out.FlowPDRs, pdr)
			out.TotalFlows++
			if pdr == 0 {
				out.DisconnectedFlows++
			}
		}
		out.PowerPerPacket = append(out.PowerPerPacket, metrics.PowerPerPacketMW(
			after-before, sim.TimeAt(nw.ASN()-start), col.DeliveredCount()))

		// Failures accumulate ("turning off 4 nodes ... in turn"): the
		// routing graph has to absorb each loss on top of the previous
		// ones, which is what eventually partitions a single-path tree.
	}
	return out, nil
}

// forwardedCounts snapshots every node's lifetime forwarding counter.
func forwardedCounts(net stack.Bundle, n int) []int64 {
	out := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		out[i] = net.MACNode(i).Stats().Forwarded
	}
	return out
}

// pickVictim finds the field device that forwarded the most traffic so far
// (the biggest routing-graph router that is not itself a source).
func pickVictim(nw *sim.Network, net stack.Bundle, sources map[topology.NodeID]bool) topology.NodeID {
	return pickVictimByDelta(nw, net, sources, make([]int64, nw.Topology().N()+1))
}

// pickVictimByDelta finds the field device whose forwarding counter grew
// the most since the snapshot.
func pickVictimByDelta(nw *sim.Network, net stack.Bundle, sources map[topology.NodeID]bool,
	before []int64) topology.NodeID {
	topo := nw.Topology()
	var best topology.NodeID
	var bestFwd int64 = -1
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		if sources[id] || nw.Failed(id) {
			continue
		}
		if fwd := net.MACNode(i).Stats().Forwarded - before[i]; fwd > bestFwd {
			best, bestFwd = id, fwd
		}
	}
	if bestFwd <= 0 {
		return 0
	}
	return best
}

// RunFig11b reproduces the Figure 11(b) micro-benchmark: a busy router
// dies while packet 34 is in flight; the result records which of packets
// 30..40 each flow delivered.
func RunFig11b(proto Protocol, seed int64) (*MicrobenchResult, error) {
	topo := testbedATopo()
	net, err := buildNetwork(proto, topo, seed)
	if err != nil {
		return nil, err
	}
	nw := net.NW
	if _, err := net.Form(context.Background(), nil, 1.0, 240*time.Second, 60*time.Second); err != nil {
		return nil, err
	}

	const period = 5 * time.Second
	col := metrics.NewCollector()
	fset := flows.FixedSet(topo.SuggestedSources, period)
	sources := map[topology.NodeID]bool{}
	for _, f := range fset {
		sources[f.Source] = true
	}
	const totalPackets = 45
	base := nw.ASN()
	net.Drive(fset, totalPackets, 0, col)

	// Warm the forwarding statistics on the early packets, then kill the
	// busiest router just before packet 33 is generated.
	nw.At(base+sim.SlotsFor(period)*33-10, func() {
		if v := pickVictim(nw, net, sources); v != 0 {
			nw.Fail(v)
		}
	})

	nw.Run(sim.SlotsFor(period*totalPackets + 20*time.Second))
	net.OnDeliver(nil)
	return microbenchWindow(col, fset, 30, 40), nil
}
