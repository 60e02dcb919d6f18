// Command digs-sim runs one WSAN scenario: it builds a topology, boots one
// of the registered protocol stacks (digs, orchestra, whart, sdn,
// adaptive), optionally adds WiFi jammers and a node failure, drives
// periodic uplink flows and prints the resulting reliability, latency and
// energy figures.
//
// Every run is a scenario.Spec run through scenario.RunSpec, the executor
// digs-server uses: the flags map to one spec (-fail to a one-entry fault
// plan), and stderr carries the spec's hash and canonical JSON — pipe that
// line into digs-sim -spec - to rerun it — then the result's hash.
//
// Examples:
//
//	digs-sim -topology testbed-a -protocol digs -duration 2m
//	digs-sim -topology testbed-b -protocol orchestra -jammers 3
//	digs-sim -topology random-150 -protocol sdn -flows 20 -period 10s
//	digs-sim -reps 8 -parallel 4    # 8 seeds fanned over 4 workers
//	digs-sim -spec scenario.json    # run a JSON scenario spec (server parity)
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
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "digs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	var spec scenario.Spec
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&spec.Topology, "topology", "testbed-a",
		"deployment: "+scenario.TopologyNames)
	fs.StringVar(&spec.Protocol, "protocol", "digs", "stack: "+stack.Names())
	fs.DurationVar((*time.Duration)(&spec.Window), "duration", 2*time.Minute, "measurement window")
	fs.DurationVar((*time.Duration)(&spec.Period), "period", 5*time.Second, "packet period per flow")
	fs.IntVar(&spec.Flows, "flows", 0, "number of random flows (0 = the deployment's suggested sources, or 8 random ones where it suggests none)")
	fs.IntVar(&spec.Jammers, "jammers", 0, "WiFi jammers to enable (0..3)")
	failNode := fs.Int("fail", 0,
		"node ID to crash half the window in (0 = none), as a one-entry node-crash fault plan; "+
			"a plan's window runs to its horizon plus 60s, so a window under 2m grows to half of it plus 60s; "+
			"a failed flow source stops generating, so its packets are not counted lost")
	fs.Int64Var(&spec.Seed, "seed", 1, "simulation seed")
	verbose := fs.Bool("v", false, "print per-flow results and the slot loop's own counters")
	tracePath := fs.String("trace", "",
		"write a packet-lifecycle event trace (JSONL) to this file; analyse with digs-trace")
	fs.BoolVar(&spec.Invariants, "invariants", false,
		"run the invariant monitor with self-healing watchdogs during the measurement window")
	reps := fs.Int("reps", 1, "independent repetitions (seed, seed+1, ...) aggregated at the end")
	parallel := fs.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	dumpNode := fs.Int("dump-schedule", 0,
		"print the combined-schedule roles of this node for one hyperperiod window and exit")
	specPath := fs.String("spec", "",
		"run a JSON scenario spec (\"-\" = stdin) through the shared executor and print its canonical result; bit-identical to a digs-server run of the same spec")
	warmDir := fs.String("warm", "", "with -spec: warm-start cache directory (shared with digs-server's warm pool)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, as flag.Parse does
	var set []string   // the flags given, in lexical order
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })

	campaign.SetDefaultWorkers(*parallel)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ropts scenario.RunOpts
	switch {
	case *specPath != "":
		var ignored []string
		for _, name := range set {
			switch name {
			case "spec", "warm", "trace", "parallel":
			default:
				ignored = append(ignored, "-"+name)
			}
		}
		if len(ignored) > 0 {
			return fmt.Errorf("-spec runs the spec alone: drop %s", strings.Join(ignored, ", "))
		}
		var err error
		if spec, err = readSpec(*specPath); err != nil {
			return err
		}
		if *warmDir != "" {
			ropts.Warm = &snapshot.Cache{Dir: *warmDir}
		}
	case *warmDir != "":
		return fmt.Errorf("-warm requires -spec")
	default:
		ropts.TraceFormation = true
		if *failNode != 0 { // permanent, half the window after the plan epoch (the window's first slot)
			spec.Plan = &chaos.Plan{Name: "fail", Entries: []chaos.Entry{{
				Kind: chaos.KindNodeCrash, Targets: []topology.NodeID{topology.NodeID(*failNode)}, Start: spec.Window / 2,
			}}}
		}
	}
	switch dump := slices.Contains(set, "dump-schedule"); {
	case dump && *reps > 1:
		return fmt.Errorf("-dump-schedule is a single-run mode; drop -reps")
	case dump:
		return runDump(ctx, spec, ropts, *dumpNode, *tracePath, stdout)
	case *reps > 1:
		return runReps(ctx, spec, *reps, *verbose, *tracePath, stdout, stderr)
	}

	endTrace, err := traceTo(*tracePath, &ropts)
	if err != nil {
		return err
	}
	res, info, err := execute(ctx, spec, ropts, stderr)
	if err != nil {
		return err
	}
	if *specPath == "" {
		report(stdout, res, info, *verbose)
		return endTrace(stdout)
	}
	enc, err := res.Encode()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	return endTrace(stderr)
}

// readSpec decodes a JSON scenario spec from the file ("-" = stdin),
// refusing unknown fields.
func readSpec(path string) (scenario.Spec, error) {
	var spec scenario.Spec
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		in = f
	}
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decoding spec: %w", err)
	}
	return spec, nil
}

// traceTo sets ropts' tracer to a JSONL trace into the file at path (none
// for an empty path) and returns what ends it: a flush, and the file
// reported on msg.
func traceTo(path string, ropts *scenario.RunOpts) (done func(msg io.Writer) error, err error) {
	if path == "" {
		return func(io.Writer) error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tr := telemetry.NewJSONL(f)
	ropts.Tracer = tr
	return func(msg io.Writer) error {
		defer f.Close()
		if err := tr.Flush(); err != nil {
			return fmt.Errorf("trace %s: %w", path, err)
		}
		_, err := fmt.Fprintf(msg, "trace written to %s\n", path)
		return err
	}, nil
}

// execute runs the spec through scenario.RunSpec. On log it prints the
// spec's hash and canonical JSON before the run — the line digs-sim -spec -
// reruns — and the result's hash after it.
func execute(ctx context.Context, spec scenario.Spec, ropts scenario.RunOpts, log io.Writer) (*scenario.Result, scenario.RunInfo, error) {
	cs := spec.Canonical()
	hash, err := cs.Hash()
	if err != nil {
		return nil, scenario.RunInfo{}, err
	}
	raw, _ := json.Marshal(cs) // Hash has encoded it
	fmt.Fprintf(log, "spec %s\n%s\n", hash, raw)
	res, info, err := scenario.RunSpec(ctx, spec, ropts)
	if err != nil {
		return nil, info, err
	}
	rhash, err := res.HashResult()
	if err != nil {
		return nil, info, err
	}
	fmt.Fprintf(log, "result %s (warm_hit=%v, wall %v)\n",
		rhash, info.WarmHit, info.Wall.Round(time.Millisecond))
	return res, info, nil
}

// runReps runs one spec per seed (seed, seed+1, ...) over the campaign
// pool. Each rep's report and stderr lines are buffered and printed in rep
// order, so the output reads identically however the pool interleaved
// them. With -trace, each rep writes its own job-stamped part; the parts
// merge in rep order, so the combined trace is byte-identical at any
// worker count.
func runReps(ctx context.Context, spec scenario.Spec, reps int, verbose bool, tracePath string, stdout, stderr io.Writer) error {
	type repOut struct {
		res         scenario.Result
		report, log bytes.Buffer
	}
	traces := telemetry.NewJobTraces(tracePath, reps)
	outs, err := campaign.Map(campaign.New(0), reps, func(i int) (*repOut, error) {
		o, rep := &repOut{}, spec
		rep.Seed += int64(i)
		ropts := scenario.RunOpts{Tracer: traces.Tracer(i), TraceFormation: true}
		res, info, err := execute(ctx, rep, ropts, &o.log)
		if err != nil {
			return nil, fmt.Errorf("rep %d (seed %d): %w", i, rep.Seed, err)
		}
		report(&o.report, res, info, verbose)
		o.res = *res
		return o, nil
	})
	var pe *campaign.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("rep %d (seed %d) panicked: %v\n%s",
			pe.Job, spec.Seed+int64(pe.Job), pe.Value, pe.Stack)
	}
	if err != nil {
		return err
	}
	if err := traces.Write(stdout, "reps"); err != nil {
		return err
	}

	var pdrs, medians, powers []float64
	for i, o := range outs {
		stderr.Write(o.log.Bytes())
		fmt.Fprintf(stdout, "--- rep %d (seed %d) ---\n", i, o.res.Seed)
		stdout.Write(o.report.Bytes())
		pdrs = append(pdrs, o.res.PDR)
		medians = append(medians, o.res.LatencyMedianMs)
		powers = append(powers, o.res.PowerPerPacketMW)
	}
	fmt.Fprintf(stdout, "\n=== aggregate over %d reps (workers=%d) ===\n", reps, campaign.DefaultWorkers())
	fmt.Fprintf(stdout, "PDR:               mean %.3f  min %.3f  max %.3f\n",
		metrics.Mean(pdrs), metrics.Min(pdrs), metrics.Max(pdrs))
	fmt.Fprintf(stdout, "latency median:    mean %.0f ms\n", metrics.Mean(medians))
	fmt.Fprintf(stdout, "power per packet:  mean %.3f mW\n", metrics.Mean(powers))
	return nil
}

// header prints a run's first two lines: the deployment and the formation.
func header(w io.Writer, sc *scenario.Scenario, formationSlots int64) {
	topo := sc.Params.Topology
	fmt.Fprintf(w, "topology %s: %d nodes (%d APs), protocol %s\n",
		topo.Name, topo.N(), topo.NumAPs, sc.Params.Protocol)
	fmt.Fprintf(w, "network formed in %v\n", sim.TimeAt(formationSlots))
}

// report prints a run's human report from what the run holds: the
// deployment and formation, the jammers and the -fail crash as the window
// saw them, the window's figures, the invariant report and, with verbose,
// per-flow rates and the slot loop's own counters.
func report(w io.Writer, res *scenario.Result, info scenario.RunInfo, verbose bool) {
	sc, m := info.Scenario, info.Measurement
	header(w, sc, res.FormationSlots)
	for j, wifiCh := range m.Jammers {
		fmt.Fprintf(w, "jammer on node %d (WiFi channel %d)\n", sc.Params.Topology.SuggestedJammers[j], wifiCh)
	}
	if m.Plan != nil { // -fail's one crash, timed from the plan epoch
		e := m.Plan.Entries[0]
		fmt.Fprintf(w, "node %d failed at %v\n", e.Targets[0], sim.TimeAt(res.FinalSlot-res.WindowSlots+e.Start.Slots()))
	}
	fmt.Fprintf(w, "\n=== results (%v window, %d flows, %v period) ===\n",
		m.Window, res.Flows, sc.Params.Period)
	fmt.Fprintf(w, "PDR:                 %.3f (%d/%d packets)\n", res.PDR, res.Delivered, res.Sent)
	if res.Delivered > 0 {
		fmt.Fprintf(w, "latency median:      %.0f ms  (p90 %.0f ms, max %.0f ms)\n",
			res.LatencyMedianMs, res.LatencyP90Ms, res.LatencyMaxMs)
	}
	fmt.Fprintf(w, "power per packet:    %.3f mW\n", res.PowerPerPacketMW)
	if m.Invariants != nil {
		invariant.WriteText(w, *m.Invariants)
	}
	if verbose {
		for _, f := range sc.FlowSet {
			fmt.Fprintf(w, "  flow %2d (node %3d): PDR %.3f\n", f.ID, f.Source, m.Collector.FlowPDR(f.ID))
		}
		fmt.Fprintf(w, "slot loop over %d slots: %v\n", sc.NW.ASN(), sc.NW.LoopStats())
	}
}

// runDump forms the spec's network and prints the node's combined
// schedule for the next 600 slots (6 seconds): the autonomous schedule
// made visible.
func runDump(ctx context.Context, spec scenario.Spec, ropts scenario.RunOpts, id int, tracePath string, stdout io.Writer) error {
	endTrace, err := traceTo(tracePath, &ropts)
	if err != nil {
		return err
	}
	sc, formed, err := scenario.FormSpec(ctx, spec, ropts)
	if err != nil {
		return err
	}
	if id < 1 || id > sc.Params.Topology.N() {
		return fmt.Errorf("node %d outside the topology", id)
	}
	header(stdout, sc, formed.Slots)
	names := map[mac.SlotRole]string{
		mac.RoleSleep: ".", mac.RoleTxEB: "E", mac.RoleRxEB: "e",
		mac.RoleShared: "S", mac.RoleTxData: "T", mac.RoleRxData: "R",
	}
	base := sc.NW.ASN()
	fmt.Fprintf(stdout, "combined schedule of node %d from ASN %d "+
		"(E/e = EB tx/rx, S = shared, T/R = data tx/rx, . = sleep):\n", id, base)
	for row := 0; row < 12; row++ {
		fmt.Fprintf(stdout, "  %7d  ", base+int64(row*50))
		for col := 0; col < 50; col++ {
			fmt.Fprint(stdout, names[sc.Schedule(id, base+int64(row*50+col)).Role])
		}
		fmt.Fprintln(stdout)
	}
	return endTrace(stdout)
}
