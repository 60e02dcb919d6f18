package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/interference"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func testbedATopo() *topology.Topology { return topology.TestbedA() }
func testbedBTopo() *topology.Topology { return topology.TestbedB() }

// InterferenceOptions parameterise the Figure 9 / Figure 10 campaigns:
// DiGS vs Orchestra under WiFi jamming.
type InterferenceOptions struct {
	// Testbed selects "A" (Figure 9) or "B" (Figure 10).
	Testbed string
	// FlowSets per protocol (paper: 300 on A, 220 on B).
	FlowSets int
	// FlowsPerSet (paper: 8 on A, 6 on B).
	FlowsPerSet int
	// PacketsPerFlow per flow set window.
	PacketsPerFlow int
	Seed           int64

	// CacheDir names a snapshot cache directory (see internal/snapshot):
	// the converge + settle phase restores from it when a matching
	// snapshot exists and populates it when not, so repeated campaigns
	// (figure re-runs, digs-chaos on the same seed) pay network formation
	// once. Empty disables caching. Results are bit-identical either way.
	CacheDir string
}

// DefaultInterferenceOptions returns a campaign sized for interactive use;
// raise FlowSets to the paper's 300/220 for full fidelity.
func DefaultInterferenceOptions(testbed string) InterferenceOptions {
	opts := InterferenceOptions{
		Testbed:        testbed,
		FlowSets:       30,
		FlowsPerSet:    8,
		PacketsPerFlow: 12,
		Seed:           1,
	}
	if testbed == "B" {
		opts.FlowsPerSet = 6
	}
	return opts
}

// InterferenceResult holds both protocols' flow-set series.
type InterferenceResult struct {
	DiGS      []FlowSetResult
	Orchestra []FlowSetResult
}

// RunInterference reproduces Figure 9 (Testbed A) or Figure 10 (Testbed
// B): both stacks run the same flow-set campaign under three WiFi jammers
// at the Figure 8 positions.
func RunInterference(opts InterferenceOptions) (*InterferenceResult, error) {
	// The two protocol campaigns share nothing (each builds its own
	// topology, network and RNG), so they run as two pool jobs.
	protos := []Protocol{DiGS, Orchestra}
	rs, err := campaign.Map(campaign.New(0), len(protos),
		func(i int) ([]FlowSetResult, error) {
			r, err := runInterferenceCampaign(protos[i], opts)
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

func runInterferenceCampaign(proto Protocol, opts InterferenceOptions) ([]FlowSetResult, error) {
	topo := testbedATopo()
	if opts.Testbed == "B" {
		topo = testbedBTopo()
	}
	net, err := buildNetwork(proto, topo, opts.Seed)
	if err != nil {
		return nil, err
	}
	nw := net.NW
	if _, err := net.Form(context.Background(), formationCache(opts.CacheDir), 1.0,
		240*time.Second, 30*time.Second); err != nil {
		return nil, err
	}

	// Jammers on for the whole measurement campaign — the Figure 8
	// scenario, expressed as a chaos plan: a WiFi jammer at each suggested
	// position plus the crash of the mote running it (JamLab repurposes
	// the mote, so it stops participating in the network). With no tracer
	// the fault engine runs silently here; digs-chaos runs the same plan
	// with full recovery telemetry.
	if _, err := net.Observe(nil, false, chaos.Fig8JammerPlan(topo, opts.Seed)); err != nil {
		return nil, err
	}
	// Let the stacks reach steady state under the new interference before
	// measuring, with unmeasured priming traffic flowing: link estimators
	// learn from data transmissions, so an idle settling period would
	// leave the pre-jam routes in place and bill the whole adaptation to
	// the first measured flow set. (On the physical testbeds the flows
	// run continuously.)
	primeRng := rand.New(detrand.New(opts.Seed*131 + 3))
	for round := 0; round < 3; round++ {
		prime, err := flows.RandomSet(topo, opts.FlowsPerSet, 5*time.Second, primeRng,
			topo.SuggestedJammers...)
		if err != nil {
			return nil, err
		}
		net.Drive(prime, 14, uint16(50000+round*100), nil)
		nw.Run(sim.SlotsFor(80 * time.Second))
	}
	// Drain priming residue before the first measured set.
	nw.RunUntil(sim.SlotsFor(2*time.Minute), net.drained)

	return runFlowSets(net, FlowSetOptions{
		FlowSets:       opts.FlowSets,
		FlowsPerSet:    opts.FlowsPerSet,
		PacketPeriod:   5 * time.Second,
		PacketsPerFlow: opts.PacketsPerFlow,
		Drain:          15 * time.Second,
		Seed:           opts.Seed,
		ExcludeSources: topo.SuggestedJammers,
	})
}

// MicrobenchResult is Figure 9(f) / 11(b): which packet sequence numbers
// of each flow arrived around a disturbance.
type MicrobenchResult struct {
	// Delivered[flowIndex][seq] for seq in [FromSeq, ToSeq].
	Delivered map[uint16]map[uint16]bool
	FromSeq   uint16
	ToSeq     uint16
}

// RunFig9f reproduces the Figure 9(f) micro-benchmark: 8 flows sending
// continuously; a jammer burst hits while packets 74..84 are in the air;
// the result records which of those packets each flow delivered.
func RunFig9f(proto Protocol, seed int64) (*MicrobenchResult, error) {
	topo := testbedATopo()
	net, err := buildNetwork(proto, topo, seed)
	if err != nil {
		return nil, err
	}
	nw := net.NW
	if _, err := net.Form(context.Background(), nil, 1.0, 240*time.Second, 30*time.Second); err != nil {
		return nil, err
	}

	const period = 5 * time.Second
	col := metrics.NewCollector()
	fset := flows.FixedSet(topo.SuggestedSources, period)
	const totalPackets = 90
	base := nw.ASN()
	net.Drive(fset, totalPackets, 0, col)

	// Heavy jammer burst while packets ~75..81 are generated: each jammer
	// position radiates on two WiFi channels at once (a saturated
	// backhaul), which is what makes the baseline lose packets outright.
	burstStart := base + sim.SlotsFor(period)*74
	burstStop := base + sim.SlotsFor(period)*79
	wifiPairs := [][2]int{{1, 6}, {6, 11}, {11, 6}}
	for j, at := range topo.SuggestedJammers {
		for k, wifiCh := range wifiPairs[j%len(wifiPairs)] {
			nw.AddInterferer(&interference.Window{
				Source:   interference.NewWiFiJammer(topo, at, wifiCh, seed+int64(j*2+k)),
				StartASN: burstStart,
				StopASN:  burstStop,
			})
		}
	}

	nw.Run(sim.SlotsFor(period*totalPackets + 20*time.Second))
	net.OnDeliver(nil)
	return microbenchWindow(col, fset, 74, 84), nil
}

// microbenchWindow records which of packets from..to each flow of fset
// delivered.
func microbenchWindow(col *metrics.Collector, fset []flows.Flow, from, to uint16) *MicrobenchResult {
	out := &MicrobenchResult{
		Delivered: make(map[uint16]map[uint16]bool, len(fset)),
		FromSeq:   from,
		ToSeq:     to,
	}
	for _, f := range fset {
		seqs := col.DeliveredSeqs(f.ID)
		window := make(map[uint16]bool)
		for s := from; s <= to; s++ {
			window[s] = seqs[s]
		}
		out.Delivered[f.ID] = window
	}
	return out
}
