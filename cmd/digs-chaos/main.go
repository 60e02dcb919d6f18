// Command digs-chaos runs a declarative fault plan against the protocol
// stacks and reports how each one recovers: per-fault time-to-reconverge,
// packets lost during the repair window and drop attribution by reason.
//
// Plans are JSON (see internal/chaos); "fig8" names the built-in Figure 8
// jammer scenario. Every stack named in -protocols runs the same plan on
// the same topology and seed, so the printed table is a like-for-like
// robustness comparison. Repetitions and protocols fan out over the
// campaign worker pool; output and traces are byte-identical at any
// -parallel value.
//
// With -warm-start, formation is paid once per (topology, protocol, seed,
// config) and cached as a deterministic snapshot (see internal/snapshot):
// later runs — other plans, other branches — restore the converged network
// instead of re-forming it, with bit-identical results.
//
// Examples:
//
//	digs-chaos -plan fig8 -topology testbed-a   # four-way: digs,orchestra,whart,sdn
//	digs-chaos -plan crash.json -protocols digs,adaptive -reps 4 -parallel 4
//	digs-chaos -plan plan.json -trace out.jsonl    # analyse with digs-trace
//	digs-chaos -plan fig8 -warm-start              # snapshot-cached formation
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "digs-chaos:", err)
		os.Exit(1)
	}
}

type options struct {
	plan       string
	topology   string
	protocols  []string
	duration   time.Duration
	period     time.Duration
	seed       int64
	trace      string
	invariants bool
	asJSON     bool
	snapCache  string
	reps       int
	requireRec bool
}

func run() error {
	var opts options
	var protoList string
	flag.StringVar(&opts.plan, "plan", "",
		"fault plan: a JSON file path, or \"fig8\" for the built-in jammer scenario")
	flag.StringVar(&opts.topology, "topology", "testbed-a",
		"deployment: "+scenario.TopologyNames)
	flag.StringVar(&protoList, "protocols", "digs,orchestra,whart,sdn",
		"comma-separated stacks to subject to the plan (registered: "+scenario.StackNames()+")")
	flag.DurationVar(&opts.duration, "duration", 2*time.Minute,
		"measurement window from the plan epoch (extended to cover the plan's horizon)")
	flag.DurationVar(&opts.period, "period", 5*time.Second, "packet period per flow")
	flag.Int64Var(&opts.seed, "seed", 1, "simulation seed")
	flag.StringVar(&opts.trace, "trace", "",
		"write the packet-lifecycle + fault event trace (JSONL) to this file")
	flag.BoolVar(&opts.invariants, "invariants", false,
		"run the invariant monitor with self-healing watchdogs during the plan")
	flag.BoolVar(&opts.asJSON, "json", false,
		"emit the recovery reports as JSON instead of tables")
	flag.BoolVar(&opts.requireRec, "require-recovery", false,
		"exit nonzero if any fault never reconverges within its window (smoke-test assertion)")
	warmStart := flag.Bool("warm-start", false,
		"restore formation from the snapshot cache instead of re-forming (populating it on miss)")
	flag.StringVar(&opts.snapCache, "snap-cache", "",
		"snapshot cache directory (implies -warm-start; default .digs-snapcache)")
	reps := flag.Int("reps", 1, "independent repetitions (seed, seed+1, ...)")
	parallel := flag.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	if opts.plan == "" {
		return errors.New("-plan is required (a JSON file, or \"fig8\")")
	}
	campaign.SetDefaultWorkers(*parallel)
	topo, err := scenario.PickTopology(opts.topology)
	if err != nil {
		return err
	}
	for _, p := range strings.Split(protoList, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !scenario.StackRegistered(p) {
			return fmt.Errorf("unknown protocol %q (registered: %s)", p, scenario.StackNames())
		}
		opts.protocols = append(opts.protocols, p)
	}
	if len(opts.protocols) == 0 {
		return errors.New("no protocols selected")
	}
	opts.reps = *reps
	if *warmStart && opts.snapCache == "" {
		opts.snapCache = ".digs-snapcache"
	}

	outs, err := runCampaign(opts)
	if err != nil {
		return err
	}
	if opts.requireRec {
		// A truncated window (packets still in flight at trace end) is not a
		// failed recovery; "never" — the window closed without reconvergence
		// — is.
		for _, o := range outs {
			for _, f := range o.result.Faults {
				if f.TTRSlots < 0 && !f.Truncated {
					return fmt.Errorf("%s rep %d: fault #%d.%d (%s on node %d) never reconverged",
						o.result.Protocol, o.result.Rep, f.Entry, f.Occ, f.Kind, f.Node)
				}
			}
		}
	}

	if opts.asJSON {
		runs := make([]*runResult, len(outs))
		for i, o := range outs {
			runs[i] = o.result
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Plan     string       `json:"plan"`
			Topology string       `json:"topology"`
			Reps     int          `json:"reps"`
			Runs     []*runResult `json:"runs"`
		}{opts.plan, topo.Name, opts.reps, runs}); err != nil {
			return err
		}
	} else {
		renderText(os.Stdout, opts, topo.Name, outs)
	}
	if opts.trace != "" {
		parts := make([][]byte, len(outs))
		for i, o := range outs {
			parts[i] = o.trace.Bytes()
		}
		f, err := os.Create(opts.trace)
		if err != nil {
			return err
		}
		if err := telemetry.MergeJSONL(f, parts...); err != nil {
			f.Close()
			return fmt.Errorf("trace %s: %w", opts.trace, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Keep stdout pure JSON when -json is set.
		msgOut := io.Writer(os.Stdout)
		if opts.asJSON {
			msgOut = os.Stderr
		}
		fmt.Fprintf(msgOut, "trace written to %s (%d jobs merged)\n", opts.trace, len(outs))
	}
	return nil
}

// loadPlan resolves -plan for one job (the fig8 built-in depends on the
// topology and seed, so it is constructed per run).
func loadPlan(name string, topo *topology.Topology, seed int64) (*chaos.Plan, error) {
	if name == "fig8" {
		return chaos.Fig8JammerPlan(topo, seed), nil
	}
	return chaos.LoadFile(name)
}

// runResult is one job's machine-readable outcome (-json output).
type runResult struct {
	Protocol string `json:"protocol"`
	Rep      int    `json:"rep"`
	Seed     int64  `json:"seed"`
	// FormedSlots is how long network formation took.
	FormedSlots int64             `json:"formed_slots"`
	Faults      []faultJSON       `json:"faults"`
	Generated   int               `json:"generated"`
	Lost        int               `json:"lost"`
	Invariants  *invariant.Report `json:"invariants,omitempty"`
}

// faultJSON flattens one chaos.FaultReport with stringly drop reasons.
type faultJSON struct {
	Entry      int            `json:"entry"`
	Occ        int            `json:"occ"`
	Kind       string         `json:"kind"`
	Node       int            `json:"node"`
	StartASN   int64          `json:"start_asn"`
	EndASN     int64          `json:"end_asn"`
	ReconASN   int64          `json:"recon_asn"`
	TTRSlots   int64          `json:"ttr_slots"`
	Truncated  bool           `json:"truncated,omitempty"`
	Generated  int            `json:"generated"`
	Lost       int            `json:"lost"`
	InFlight   int            `json:"in_flight,omitempty"`
	Violations int            `json:"violations"`
	Drops      map[string]int `json:"drops,omitempty"`
}

// runPlan executes the fault plan against one protocol stack and writes
// the recovery report to w. With a snapshot cache, formation warm-starts
// from a cached converged network when one is there and populates the
// cache when not; the report is bit-identical either way.
func runPlan(w io.Writer, opts options, proto string, seed int64, cache *snapshot.Cache,
	jsonl telemetry.Tracer) (*runResult, error) {
	topo, err := scenario.PickTopology(opts.topology)
	if err != nil {
		return nil, err
	}
	plan, err := loadPlan(opts.plan, topo, seed)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Build(scenario.Params{
		Topology: topo, TopologyName: opts.topology, Protocol: proto,
		Seed: seed, Period: opts.period,
	})
	if err != nil {
		return nil, err
	}
	// Formation to the target a spec naming this deployment gets (full
	// joins on the testbeds, DefaultGenJoinFraction on generated plants),
	// then a settling margin before the plan epoch — restored from the
	// snapshot cache instead when warm-starting.
	joinFraction, formTimeout := scenario.Spec{Topology: opts.topology}.FormTarget()
	formed, err := sc.Form(context.Background(), cache, joinFraction, formTimeout, 30*time.Second)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "network formed in %v\n", sim.TimeAt(formed.Slots))

	// Recovery analyzer and optional JSONL export share one emit chain,
	// which the monitor's violations and the injector's fault events land
	// in too (so both show in the trace and the recovery windows).
	rec := chaos.NewRecovery()
	obs, err := sc.Observe(telemetry.Multi(rec, jsonl), opts.invariants, plan)
	if err != nil {
		return nil, err
	}

	// Flows from the testbed's suggested sources, over the plan window
	// plus a drain-and-recover tail.
	window := max(opts.duration, plan.Horizon()+30*time.Second)
	sc.Drive(flows.FixedSet(topo.SuggestedSources, opts.period), int(window/opts.period), 0, nil)
	sc.NW.Run(sim.SlotsFor(window + 45*time.Second))
	if err := obs.Close(); err != nil {
		return nil, err
	}
	report(w, plan, rec, obs.Monitor)
	return buildResult(formed.Slots, plan, rec, obs.Monitor), nil
}

// buildResult folds one run into the -json shape.
func buildResult(formSlots int64, plan *chaos.Plan, rec *chaos.Recovery, mon *invariant.Monitor) *runResult {
	res := &runResult{
		FormedSlots: formSlots,
		Faults:      []faultJSON{},
		Generated:   rec.Generated(),
		Lost:        rec.Lost(),
	}
	for _, r := range rec.Report() {
		kind := "?"
		if r.Entry < len(plan.Entries) {
			kind = string(plan.Entries[r.Entry].Kind)
		}
		fj := faultJSON{
			Entry: r.Entry, Occ: r.Occ, Kind: kind, Node: int(r.Node),
			StartASN: r.StartASN, EndASN: r.EndASN, ReconASN: r.ReconASN,
			TTRSlots: r.TTRSlots, Truncated: r.Truncated,
			Generated: r.Generated, Lost: r.Lost, InFlight: r.InFlight,
			Violations: r.Violations,
		}
		if len(r.Drops) > 0 {
			fj.Drops = make(map[string]int, len(r.Drops))
			for reason, n := range r.Drops {
				fj.Drops[reason.String()] = n
			}
		}
		res.Faults = append(res.Faults, fj)
	}
	if mon != nil {
		rep := mon.Report()
		res.Invariants = &rep
	}
	return res
}

// report prints the per-fault recovery table and the run totals.
func report(w io.Writer, plan *chaos.Plan, rec *chaos.Recovery, mon *invariant.Monitor) {
	reps := rec.Report()
	if len(reps) == 0 {
		fmt.Fprintln(w, "no faults fired inside the run window")
	} else {
		fmt.Fprintf(w, "%-6s %-13s %6s %10s %10s %9s %5s  %s\n",
			"fault", "kind", "target", "start", "ttr", "lost/gen", "viol", "drops in window")
		truncated := 0
		for _, r := range reps {
			kind := "?"
			if r.Entry < len(plan.Entries) {
				kind = string(plan.Entries[r.Entry].Kind)
			}
			ttr := "never"
			if r.TTRSlots >= 0 {
				ttr = sim.TimeAt(r.TTRSlots).String()
			} else if r.Truncated {
				ttr = "trunc"
				truncated += r.InFlight
			}
			fmt.Fprintf(w, "#%d.%-4d %-13s %6d %10v %10s %5d/%-3d %5d  %s\n",
				r.Entry, r.Occ, kind, r.Node, sim.TimeAt(r.StartASN), ttr,
				r.Lost, r.Generated, r.Violations, dropSummary(r.Drops))
		}
		if truncated > 0 {
			fmt.Fprintf(w, "trace ended mid-repair: %d packet(s) still in flight, not counted lost\n",
				truncated)
		}
	}
	fmt.Fprintf(w, "totals: generated %d, lost %d\n", rec.Generated(), rec.Lost())
	if mon != nil {
		invariant.WriteText(w, mon.Report())
	}
}

// dropSummary formats a drop-reason map deterministically.
func dropSummary(drops map[telemetry.DropReason]int) string {
	if len(drops) == 0 {
		return "-"
	}
	reasons := make([]telemetry.DropReason, 0, len(drops))
	for r := range drops {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	parts := make([]string, 0, len(reasons))
	for _, r := range reasons {
		parts = append(parts, fmt.Sprintf("%s=%d", r, drops[r]))
	}
	return strings.Join(parts, " ")
}

// jobOut is one campaign job's buffered output: report text, trace part
// and machine-readable result, printed and merged in job-index order so
// the output is byte-identical at any worker count.
type jobOut struct {
	log    bytes.Buffer
	trace  bytes.Buffer
	result *runResult
}

// runCampaign fans one job per (rep, protocol) over the worker pool.
func runCampaign(opts options) ([]*jobOut, error) {
	var cache *snapshot.Cache
	if opts.snapCache != "" {
		cache = &snapshot.Cache{Dir: opts.snapCache}
	}
	nJobs := opts.reps * len(opts.protocols)
	outs, err := campaign.Map(campaign.New(0), nJobs, func(i int) (*jobOut, error) {
		rep := i / len(opts.protocols)
		proto := opts.protocols[i%len(opts.protocols)]
		seed := opts.seed + int64(rep)
		o := &jobOut{}
		var jsonl telemetry.Tracer
		if opts.trace != "" {
			jsonl = telemetry.WithJob(telemetry.NewJSONL(&o.trace), i)
		}
		fmt.Fprintf(&o.log, "=== %s rep %d (seed %d) ===\n", proto, rep, seed)
		res, err := runPlan(&o.log, opts, proto, seed, cache, jsonl)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d (seed %d): %w", proto, rep, seed, err)
		}
		res.Protocol, res.Rep, res.Seed = proto, rep, seed
		o.result = res
		return o, nil
	})
	var pe *campaign.PanicError
	if errors.As(err, &pe) {
		return nil, fmt.Errorf("job %d panicked: %v\n%s", pe.Job, pe.Value, pe.Stack)
	}
	return outs, err
}

// renderText writes the human-readable campaign report. Nothing in it may
// depend on whether formation ran or was restored: a warm-started campaign
// prints what a cold one does.
func renderText(w io.Writer, opts options, topoName string, outs []*jobOut) {
	fmt.Fprintf(w, "chaos plan %q on %s, %d rep(s) x %s (workers=%d)\n\n",
		opts.plan, topoName, opts.reps, strings.Join(opts.protocols, "+"), campaign.DefaultWorkers())
	for _, o := range outs {
		w.Write(o.log.Bytes())
		fmt.Fprintln(w)
	}
}
