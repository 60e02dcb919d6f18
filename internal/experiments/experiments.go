// Package experiments reproduces the paper's evaluation: one runner per
// figure of Section VII (plus the Figure 3/4/5 empirical study of Section
// IV). Each runner builds the relevant topology, boots DiGS and/or the
// Orchestra baseline on the shared simulator, applies the figure's
// interference or failure scenario, and returns the series the figure
// plots.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
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

// builtStack is the stack under test: the shared stack contract plus the
// routers' history counters.
type builtStack struct {
	stack.Bundle
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

// buildNetwork attaches the chosen protocol stack to a fresh network. A
// non-nil digsCfg overrides the DiGS configuration (ablations).
func buildNetwork(p Protocol, topo *topology.Topology, seed int64, digsCfg *core.Config) (*sim.Network, builtStack, error) {
	nw := sim.NewNetwork(topo, seed)
	switch p {
	case DiGS:
		cfg, macCfg := core.DefaultConfig(topo.NumAPs), mac.DefaultConfig()
		if digsCfg != nil {
			cfg = *digsCfg
		}
		// DiGS schedules three attempts per slotframe where Orchestra has
		// one, so equal-time retry persistence means a 3x attempt budget —
		// for an ablated configuration too, or the ablation would vary two
		// things.
		macCfg.MaxTxPerPacket *= 3
		net, err := core.Build(nw, cfg, macCfg, seed)
		if err != nil {
			return nil, builtStack{}, err
		}
		return nw, builtStack{net, func(i int) routeCounters { return net.Stacks[i].Router() }}, nil
	case Orchestra:
		net, err := orchestra.Build(nw, orchestra.DefaultConfig(), mac.DefaultConfig(), seed)
		if err != nil {
			return nil, builtStack{}, err
		}
		return nw, builtStack{net, func(i int) routeCounters { return net.Stacks[i].Router() }}, nil
	default:
		return nil, builtStack{}, fmt.Errorf("experiments: unknown protocol %d", p)
	}
}

// converge runs the network until every node has joined (or the budget
// runs out). It returns an error when convergence fails: the experiment
// would otherwise measure a half-formed network.
func converge(nw *sim.Network, net stack.Bundle, budget time.Duration) error {
	return convergeFraction(nw, net, budget, 1.0)
}

// convergeFraction accepts partial convergence: at least the given
// fraction of nodes joined (large sparse deployments can have corner
// stragglers that take tens of minutes, just as physical ones do).
func convergeFraction(nw *sim.Network, net stack.Bundle, budget time.Duration, frac float64) error {
	topo := nw.Topology()
	want := int(math.Ceil(frac * float64(topo.N())))
	if _, ok := nw.RunUntil(sim.SlotsFor(budget), func() bool {
		return net.JoinedCount() >= want
	}); !ok {
		return fmt.Errorf("experiments: only %d/%d nodes joined within %v (want %d)",
			net.JoinedCount(), topo.N(), budget, want)
	}
	return nil
}

// warmConverge brings a freshly built, never-stepped network to the
// converged + settled state a measurement campaign starts from. With a
// cache directory it restores a matching snapshot (see internal/snapshot)
// instead of re-running formation, storing one on miss; continuing from
// the restored state is bit-identical to having formed inline, so cached
// and uncached campaigns produce the same figures.
func warmConverge(cacheDir string, nw *sim.Network, net stack.Bundle, seed int64, settle time.Duration) error {
	form := func() error {
		if err := converge(nw, net, 240*time.Second); err != nil {
			return err
		}
		nw.Run(sim.SlotsFor(settle))
		return nil
	}
	if cacheDir == "" {
		return form()
	}
	cache := &snapshot.Cache{Dir: cacheDir}
	key := snapshot.Key{
		Topology:   nw.Topology().Name,
		Protocol:   net.Protocol(),
		Seed:       seed,
		ConfigHash: net.ConfigHash(),
		Label:      fmt.Sprintf("formed+%ds", int(settle.Seconds())),
	}
	snap, err := cache.Load(key)
	if err != nil {
		return err
	}
	if snap != nil {
		return snap.Restore(nw, net)
	}
	if err := form(); err != nil {
		return err
	}
	snap, err = snapshot.Take(snapshot.Meta{
		Topology: key.Topology, Seed: seed, ConfigHash: key.ConfigHash, Label: key.Label,
	}, nw, net)
	if err != nil {
		return err
	}
	return cache.Store(key, snap)
}

// netStats sums MAC counters across all nodes.
type netStats struct {
	energyJ   float64
	radioOn   time.Duration
	delivered int64
}

func statsSnapshot(nw *sim.Network, net stack.Bundle) netStats {
	nw.SettleNaps() // a napping node's counters lag until it wakes
	var s netStats
	for i := 1; i <= nw.Topology().N(); i++ {
		st := net.MACNode(i).Stats()
		s.energyJ += st.EnergyJoules
		s.radioOn += st.RadioOnTime
		s.delivered += st.SinkDelivered
	}
	return s
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
	// FixedSources, when set, uses these sources for every flow set
	// instead of random draws.
	FixedSources []topology.NodeID
	// ExcludeSources are never drawn as random sources (e.g. motes
	// repurposed as jammers).
	ExcludeSources []topology.NodeID
}

// runFlowSets runs a sequence of flow sets on an already-converged
// network, one after another (the network stays up, as a real deployment
// would), and returns one result per flow set.
func runFlowSets(nw *sim.Network, net stack.Bundle, opts FlowSetOptions) ([]FlowSetResult, error) {
	topo := nw.Topology()
	rng := rand.New(rand.NewSource(opts.Seed*31 + 7))
	results := make([]FlowSetResult, 0, opts.FlowSets)

	for set := 0; set < opts.FlowSets; set++ {
		var fset []flows.Flow
		if opts.FixedSources != nil {
			fset = flows.FixedSet(opts.FixedSources, opts.PacketPeriod)
		} else {
			var err error
			fset, err = flows.RandomSet(topo, opts.FlowsPerSet, opts.PacketPeriod, rng,
				opts.ExcludeSources...)
			if err != nil {
				return nil, err
			}
		}

		col := metrics.NewCollector()
		net.OnDeliver(func(asn sim.ASN, f *sim.Frame) {
			col.Delivered(f.FlowID, f.Seq, asn)
		})
		// Sequence numbers must be unique across windows: the MAC's
		// duplicate suppression remembers (origin, flow, seq) end-to-end.
		seqBase := uint16(set * opts.PacketsPerFlow)
		flows.Schedule(nw, fset, opts.PacketsPerFlow, func(f flows.Flow, seq uint16, asn sim.ASN) {
			seq += seqBase
			col.Sent(f.ID, seq, asn)
			_ = net.MACNode(int(f.Source)).InjectData(&sim.Frame{
				Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: asn,
			})
		})

		before := statsSnapshot(nw, net)
		window := opts.PacketPeriod*time.Duration(opts.PacketsPerFlow) + opts.Drain
		startASN := nw.ASN()
		nw.Run(sim.SlotsFor(window))
		after := statsSnapshot(nw, net)
		elapsed := sim.TimeAt(nw.ASN() - startASN)
		net.OnDeliver(nil)

		// Quiesce: drain every forwarding queue before the next flow set
		// so one set's congestion does not bleed into the next (the
		// paper's flow sets are independent measurements).
		nw.RunUntil(sim.SlotsFor(3*time.Minute), func() bool {
			for i := 1; i <= topo.N(); i++ {
				if net.MACNode(i).QueueLen() > 0 {
					return false
				}
			}
			return true
		})
		results = append(results, FlowSetResult{
			PDR:              col.PDR(),
			Latencies:        col.Latencies(),
			PowerPerPacketMW: metrics.PowerPerPacketMW(after.energyJ-before.energyJ, elapsed, col.DeliveredCount()),
			DutyPerPacketPct: metrics.DutyCyclePerPacket(after.radioOn-before.radioOn, topo.N(), elapsed, col.DeliveredCount()),
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
