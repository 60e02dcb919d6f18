package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// RepairOptions parameterise the Section IV empirical study (Figures 4
// and 5): Orchestra's repair behaviour when WiFi jammers switch on.
type RepairOptions struct {
	// JammerCounts are the jammer population sizes to test (paper: 1..4).
	JammerCounts []int
	// Repetitions per jammer count (paper: 3).
	Repetitions int
	Seed        int64
	// Tracer, when set, returns the packet-lifecycle sink for the given
	// job index (jammer counts x repetitions, in declaration order). Each
	// parallel job must get its own sink; wrap per-job sinks in
	// telemetry.WithJob and merge with telemetry.MergeJSONL to get a
	// deterministic combined trace.
	Tracer func(job int) telemetry.Tracer
	// Invariants runs the invariant monitor (with self-healing watchdogs)
	// during each repair window and reports per-run violation counts.
	Invariants bool
}

// DefaultRepairOptions mirrors the paper's setup.
func DefaultRepairOptions() RepairOptions {
	return RepairOptions{
		JammerCounts: []int{1, 2, 3, 4},
		Repetitions:  3,
		Seed:         1,
	}
}

// RepairResult is one repetition's outcome.
type RepairResult struct {
	Jammers    int
	RepairTime time.Duration
	// FlowPDRs are the 8 data flows' delivery rates during the repair
	// window (Figure 5's boxplot samples).
	FlowPDRs []float64
	// Violations/Repairs count what the invariant monitor saw during the
	// run (zero unless RepairOptions.Invariants is set).
	Violations int
	Repairs    int
}

// RunFig4And5 reproduces Figures 4 and 5: for each jammer count, let the
// network converge, switch the jammers on, and measure (a) the repair time
// — how long routing keeps changing after the interference starts — and
// (b) the PDR of 8 data flows during the repair window.
func RunFig4And5(opts RepairOptions) ([]RepairResult, error) {
	// Each (jammer count, repetition) pair is an independent run with its
	// own seed, so the campaign fans out over the worker pool; the seed
	// formula matches the historical sequential loop exactly.
	type job struct {
		jammers int
		rep     int
		seed    int64
	}
	var jobs []job
	for _, jc := range opts.JammerCounts {
		for rep := 0; rep < opts.Repetitions; rep++ {
			jobs = append(jobs, job{
				jammers: jc,
				rep:     rep,
				seed:    opts.Seed*1000 + int64(jc)*100 + int64(rep),
			})
		}
	}
	results, err := campaign.Map(campaign.New(0), len(jobs), func(i int) (RepairResult, error) {
		var tr telemetry.Tracer
		if opts.Tracer != nil {
			tr = opts.Tracer(i)
		}
		return runRepair(jobs[i].jammers, jobs[i].seed, tr, opts.Invariants)
	})
	var pe *campaign.PanicError
	if errors.As(err, &pe) {
		j := jobs[pe.Job]
		return nil, fmt.Errorf("fig 4/5 campaign: Orchestra run with %d jammer(s), repetition %d (job %d, seed %d) panicked: %v\n%s",
			j.jammers, j.rep, pe.Job, j.seed, pe.Value, pe.Stack)
	}
	return results, err
}

// repairStabilityWindow is how long routing must stay quiet for the repair
// to be considered complete.
const repairStabilityWindow = 15 * time.Second

// repairBudget bounds the repair measurement.
const repairBudget = 150 * time.Second

func runRepair(jammerCount int, seed int64, tr telemetry.Tracer, invariants bool) (RepairResult, error) {
	topo := testbedATopo()
	net, err := buildNetwork(Orchestra, topo, seed)
	if err != nil {
		return RepairResult{}, err
	}
	nw := net.NW
	// The trace covers the formation too; the full chain replaces the bare
	// tracer once the network has formed.
	if _, err := net.Observe(tr, false, nil); err != nil {
		return RepairResult{}, err
	}
	// Let routing settle for a minute before the disturbance.
	if _, err := net.Form(context.Background(), nil, 1.0, 240*time.Second, 60*time.Second); err != nil {
		return RepairResult{}, err
	}
	obs, err := net.Observe(tr, invariants, nil)
	if err != nil {
		return RepairResult{}, err
	}

	// Arm the jammers to start now.
	jamStart := nw.ASN()
	net.Jam(jammerCount)

	// Traffic during the repair: the paper's 8 flows at 5 s period.
	col := metrics.NewCollector()
	fset := flows.FixedSet(topo.SuggestedSources, 5*time.Second)
	net.Drive(fset, int(repairBudget/(5*time.Second)), 0, col)

	// Watch routing churn among the nodes the jammers actually disturb:
	// the repair ends when their parent changes stop. (Network-wide
	// counters would extend the repair with unrelated Trickle noise.)
	cohort := jamCohort(nw, jammerCount)
	windowPolls := int(repairStabilityWindow / time.Second)
	history := []int64{net.ParentChangesOf(cohort)}
	repair := repairBudget // censored at the budget if churn never calms
	for nw.ASN() < jamStart+sim.SlotsFor(repairBudget) {
		nw.Run(100) // poll once per second
		history = append(history, net.ParentChangesOf(cohort))
		if len(history) <= windowPolls {
			continue
		}
		// Repaired when the disturbed region's routing churn has calmed
		// to at most one change per stability window (under sustained
		// jamming the estimators keep micro-adjusting, so demanding total
		// silence would never terminate).
		recent := history[len(history)-1] - history[len(history)-1-windowPolls]
		if recent <= 1 {
			repair = sim.TimeAt(nw.ASN()-jamStart) - repairStabilityWindow
			break
		}
	}
	net.OnDeliver(nil)
	if err := obs.Close(); err != nil {
		return RepairResult{}, fmt.Errorf("fig 4/5 trace flush: %w", err)
	}

	pdrs := make([]float64, 0, len(fset))
	for _, f := range fset {
		pdrs = append(pdrs, col.FlowPDR(f.ID))
	}
	res := RepairResult{Jammers: jammerCount, RepairTime: repair, FlowPDRs: pdrs}
	if obs.Monitor != nil {
		rep := obs.Monitor.Report()
		res.Violations = rep.Total
		res.Repairs = rep.Repairs
	}
	return res, nil
}

// jamCohort returns the field devices within disruption range of the
// active jammers.
func jamCohort(nw *sim.Network, jammerCount int) []topology.NodeID {
	topo := nw.Topology()
	const disruptionRadiusM = 18.0
	var out []topology.NodeID
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		for j := 0; j < jammerCount && j < len(topo.SuggestedJammers); j++ {
			if topo.Distance(id, topo.SuggestedJammers[j]) <= disruptionRadiusM {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// RepairTimesSeconds extracts the Figure 4 CDF samples.
func RepairTimesSeconds(rs []RepairResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.RepairTime.Seconds()
	}
	return out
}
