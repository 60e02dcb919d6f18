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
// Each job is the scenario.RunSpec run of a spec naming the plan, so its
// window is a spec's: -duration, extended to the plan's horizon plus 60 s,
// then a 15 s drain. With -snap-cache, formation is paid once per
// (topology, protocol, seed, config) and cached as a deterministic snapshot
// (see internal/snapshot): later runs — other plans, other branches —
// restore the converged network instead of re-forming it, with
// bit-identical results.
//
// Examples:
//
//	digs-chaos -plan fig8 -topology testbed-a   # four-way: digs,orchestra,whart,sdn
//	digs-chaos -plan crash.json -protocols digs,adaptive -reps 4 -parallel 4
//	digs-chaos -plan plan.json -trace out.jsonl    # analyse with digs-trace
//	digs-chaos -plan fig8 -snap-cache .digs-snapcache  # cached formation
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
	"strings"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
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

func run(args []string) error {
	var opts options
	var protoList string
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&opts.plan, "plan", "",
		"fault plan: a JSON file path, or \"fig8\" for the built-in jammer scenario")
	fs.StringVar(&opts.topology, "topology", "testbed-a",
		"deployment: "+scenario.TopologyNames)
	fs.StringVar(&protoList, "protocols", "digs,orchestra,whart,sdn",
		"comma-separated stacks to subject to the plan (registered: "+stack.Names()+")")
	fs.DurationVar(&opts.duration, "duration", 2*time.Minute,
		"measurement window from the plan epoch, at least -period and at most 4h (extended to the plan's horizon plus 60s)")
	fs.DurationVar(&opts.period, "period", 5*time.Second, "packet period per flow")
	fs.Int64Var(&opts.seed, "seed", 1, "simulation seed")
	fs.StringVar(&opts.trace, "trace", "",
		"write the packet-lifecycle + fault event trace (JSONL) to this file")
	fs.BoolVar(&opts.invariants, "invariants", false,
		"run the invariant monitor with self-healing watchdogs during the plan")
	fs.BoolVar(&opts.asJSON, "json", false,
		"emit the recovery reports as JSON instead of tables")
	fs.BoolVar(&opts.requireRec, "require-recovery", false,
		"exit nonzero if any fault never reconverges within its window (smoke-test assertion)")
	fs.StringVar(&opts.snapCache, "snap-cache", "",
		"restore formation from the snapshot cache in this directory instead of re-forming (populating it on miss)")
	reps := fs.Int("reps", 1, "independent repetitions (seed, seed+1, ...)")
	parallel := fs.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, as flag.Parse does

	if opts.plan == "" {
		return errors.New("-plan is required (a JSON file, or \"fig8\")")
	}
	if opts.period <= 0 || opts.duration < opts.period {
		return fmt.Errorf("-duration %v must be at least -period %v, and both positive", opts.duration, opts.period)
	}
	campaign.SetDefaultWorkers(*parallel)
	if err := scenario.ValidTopologyName(opts.topology); err != nil {
		return err
	}
	for _, p := range strings.Split(protoList, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if _, err := stack.Lookup(p); err != nil {
			return err
		}
		opts.protocols = append(opts.protocols, p)
	}
	if len(opts.protocols) == 0 {
		return errors.New("no protocols selected")
	}
	opts.reps = *reps

	traces := telemetry.NewJobTraces(opts.trace, opts.reps*len(opts.protocols))
	topoName, outs, err := runCampaign(opts, traces)
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
		}{opts.plan, topoName, opts.reps, runs}); err != nil {
			return err
		}
	} else {
		renderText(os.Stdout, opts, topoName, outs)
	}
	// Keep stdout pure JSON when -json is set.
	msgOut := io.Writer(os.Stdout)
	if opts.asJSON {
		msgOut = os.Stderr
	}
	return traces.Write(msgOut, "jobs")
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
	Undelivered int               `json:"undelivered"`
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

// runPlan runs one job, the spec through scenario.RunSpec with the
// recovery analyzer and the optional JSONL export on its tracer, and
// writes the recovery report to w. The monitor's violations and the
// injector's fault events land in the same chain, so both show in the
// trace and the recovery windows. With a snapshot cache, formation
// warm-starts from a cached converged network when one is there and
// populates the cache when not; the report is bit-identical either way.
// It returns the job's result and the name of the deployment it ran on.
func runPlan(w io.Writer, spec scenario.Spec, cache *snapshot.Cache,
	jsonl telemetry.Tracer) (*runResult, string, error) {
	rec := chaos.NewRecovery()
	res, info, err := scenario.RunSpec(context.Background(), spec,
		scenario.RunOpts{Tracer: telemetry.Multi(rec, jsonl), Warm: cache})
	if err != nil {
		return nil, "", err
	}
	m := info.Measurement
	fmt.Fprintf(w, "network formed in %v\n", sim.TimeAt(res.FormationSlots))
	chaos.WriteReport(w, m.Plan, rec)
	if m.Invariants != nil {
		invariant.WriteText(w, *m.Invariants)
	}
	return buildResult(res.FormationSlots, m.Plan, rec, m.Invariants), info.Scenario.Params.Topology.Name, nil
}

// buildResult folds one run into the -json shape.
func buildResult(formSlots int64, plan *chaos.Plan, rec *chaos.Recovery, inv *invariant.Report) *runResult {
	res := &runResult{
		FormedSlots: formSlots,
		Faults:      []faultJSON{},
		Generated:   rec.Generated(),
		Undelivered: rec.Undelivered(),
	}
	for _, r := range rec.Report() {
		fj := faultJSON{
			Entry: r.Entry, Occ: r.Occ, Kind: plan.EntryKind(r.Entry), Node: int(r.Node),
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
	res.Invariants = inv
	return res
}

// jobOut is one campaign job's buffered output: report text and
// machine-readable result, printed in job-index order so the output is
// byte-identical at any worker count.
type jobOut struct {
	log    bytes.Buffer
	result *runResult
	topo   string // the deployment's name
}

// runCampaign fans one job per (rep, protocol) over the worker pool; job
// i records into traces.Tracer(i). It returns the name of the deployment
// the jobs ran on, for the report, with the jobs' outputs.
func runCampaign(opts options, traces *telemetry.JobTraces) (string, []*jobOut, error) {
	base, err := scenario.Spec{
		Topology: opts.topology, Period: scenario.Duration(opts.period),
		Window: scenario.Duration(opts.duration), Invariants: opts.invariants,
	}.WithPlan(opts.plan)
	if err != nil {
		return "", nil, err
	}
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
		fmt.Fprintf(&o.log, "=== %s rep %d (seed %d) ===\n", proto, rep, seed)
		spec := base
		spec.Protocol, spec.Seed = proto, seed
		res, topo, err := runPlan(&o.log, spec, cache, traces.Tracer(i))
		if err != nil {
			return nil, fmt.Errorf("%s rep %d (seed %d): %w", proto, rep, seed, err)
		}
		res.Protocol, res.Rep, res.Seed = proto, rep, seed
		o.result, o.topo = res, topo
		return o, nil
	})
	var pe *campaign.PanicError
	if errors.As(err, &pe) {
		return "", nil, fmt.Errorf("job %d panicked: %v\n%s", pe.Job, pe.Value, pe.Stack)
	}
	if err != nil || len(outs) == 0 {
		return opts.topology, outs, err
	}
	return outs[0].topo, outs, nil
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
