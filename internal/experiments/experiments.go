// Package experiments reproduces the paper's evaluation: one runner per
// figure of Section VII (plus the Figure 3/4/5 empirical study of Section
// IV). Each runner builds the relevant topology, boots DiGS and/or the
// Orchestra baseline on the shared simulator, applies the figure's
// interference or failure scenario, and returns the series the figure
// plots.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/topology"
)

// Protocol selects the stack under test.
type Protocol int

// Protocols.
const (
	// DiGS is the paper's contribution.
	DiGS Protocol = iota + 1
	// Orchestra is the RPL + Orchestra baseline.
	Orchestra
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case DiGS:
		return "DiGS"
	case Orchestra:
		return "Orchestra"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// routeCounters is the per-node routing history Figures 4/5 and 13 read;
// the DiGS and RPL routers both keep it.
type routeCounters interface {
	FirstParentAt() (sim.ASN, bool)
	ParentChanges() int64
}

// builtStack is the scenario under test plus the routers' history
// counters, which only the concrete network types expose.
type builtStack struct {
	*scenario.Scenario
	router func(i int) routeCounters
}

// ParentChangesOf sums the parent switches of a cohort of nodes.
func (n builtStack) ParentChangesOf(ids []topology.NodeID) int64 {
	var total int64
	for _, id := range ids {
		total += n.router(int(id)).ParentChanges()
	}
	return total
}

// buildNetwork builds the chosen protocol's scenario on a fresh network.
func buildNetwork(p Protocol, topo *topology.Topology, seed int64) (builtStack, error) {
	params := scenario.Params{Topology: topo, Seed: seed}
	switch p {
	case DiGS:
		params.Protocol = core.Protocol
		// DiGS schedules three attempts per slotframe where Orchestra has
		// one, so equal-time retry persistence means a 3x attempt budget.
		params.MacBoost = 3
	case Orchestra:
		params.Protocol = orchestra.Protocol
	default:
		return builtStack{}, fmt.Errorf("experiments: unknown protocol %d", p)
	}
	sc, err := scenario.Build(params)
	if err != nil {
		return builtStack{}, err
	}
	net := builtStack{Scenario: sc}
	switch b := sc.Bundle.(type) {
	case *core.Network:
		net.router = func(i int) routeCounters { return b.Stacks[i].Router() }
	case *orchestra.Network:
		net.router = func(i int) routeCounters { return b.Stacks[i].Router() }
	}
	return net, nil
}

// formationCache is the shared formation cache (see scenario.Form) in a
// campaign's CacheDir, nil — no caching — for the empty name.
func formationCache(dir string) *snapshot.Cache {
	if dir == "" {
		return nil
	}
	return &snapshot.Cache{Dir: dir}
}

// drained reports whether every forwarding queue is empty.
func (n builtStack) drained() bool {
	for i := 1; i <= n.Params.Topology.N(); i++ {
		if n.MACNode(i).QueueLen() > 0 {
			return false
		}
	}
	return true
}

// FlowSetResult is one flow set's measurement (one sample of the paper's
// CDFs).
type FlowSetResult struct {
	PDR              float64
	Latencies        []time.Duration
	PowerPerPacketMW float64
	DutyPerPacketPct float64
	DeliveredPackets int
	GeneratedPackets int
}

// FlowSetOptions parameterise a flow-set measurement campaign.
type FlowSetOptions struct {
	FlowSets     int
	FlowsPerSet  int
	PacketPeriod time.Duration
	// PacketsPerFlow per flow set window.
	PacketsPerFlow int
	// Drain is extra time after the last generation for in-flight packets.
	Drain time.Duration
	Seed  int64
	// ExcludeSources are never drawn as random sources (e.g. motes
	// repurposed as jammers).
	ExcludeSources []topology.NodeID
}

// runFlowSets runs a sequence of flow sets on an already-converged
// network, one after another (the network stays up, as a real deployment
// would), and returns one result per flow set.
func runFlowSets(net builtStack, opts FlowSetOptions) ([]FlowSetResult, error) {
	nw, topo := net.NW, net.Params.Topology
	rng := rand.New(detrand.New(opts.Seed*31 + 7))
	results := make([]FlowSetResult, 0, opts.FlowSets)

	for set := 0; set < opts.FlowSets; set++ {
		fset, err := flows.RandomSet(topo, opts.FlowsPerSet, opts.PacketPeriod, rng,
			opts.ExcludeSources...)
		if err != nil {
			return nil, err
		}

		col := metrics.NewCollector()
		net.Drive(fset, opts.PacketsPerFlow, uint16(set*opts.PacketsPerFlow), col)

		energyBefore, radioBefore := net.Energy()
		window := opts.PacketPeriod*time.Duration(opts.PacketsPerFlow) + opts.Drain
		startASN := nw.ASN()
		nw.Run(sim.SlotsFor(window))
		energyAfter, radioAfter := net.Energy()
		elapsed := sim.TimeAt(nw.ASN() - startASN)
		net.OnDeliver(nil)

		// Quiesce: drain every forwarding queue before the next flow set
		// so one set's congestion does not bleed into the next (the
		// paper's flow sets are independent measurements).
		nw.RunUntil(sim.SlotsFor(3*time.Minute), net.drained)
		results = append(results, FlowSetResult{
			PDR:              col.PDR(),
			Latencies:        col.Latencies(),
			PowerPerPacketMW: metrics.PowerPerPacketMW(energyAfter-energyBefore, elapsed, col.DeliveredCount()),
			DutyPerPacketPct: metrics.DutyCyclePerPacket(radioAfter-radioBefore, topo.N(), elapsed, col.DeliveredCount()),
			DeliveredPackets: col.DeliveredCount(),
			GeneratedPackets: col.SentCount(),
		})
	}
	return results, nil
}

// PDRs extracts the per-flow-set PDR series.
func PDRs(rs []FlowSetResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.PDR
	}
	return out
}

// AllLatenciesMs pools every packet latency across flow sets, in
// milliseconds.
func AllLatenciesMs(rs []FlowSetResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, metrics.DurationsToMillis(r.Latencies)...)
	}
	return out
}

// PowersPerPacket extracts the per-flow-set power-per-packet series.
func PowersPerPacket(rs []FlowSetResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.PowerPerPacketMW
	}
	return out
}

// DutiesPerPacket extracts the per-flow-set duty-cycle-per-packet series.
func DutiesPerPacket(rs []FlowSetResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.DutyPerPacketPct
	}
	return out
}
