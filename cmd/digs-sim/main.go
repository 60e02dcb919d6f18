// Command digs-sim runs one WSAN scenario: it builds a topology, boots one
// of the registered protocol stacks (digs, orchestra, whart, sdn,
// adaptive), optionally adds WiFi jammers and a node failure, drives
// periodic uplink flows and prints the resulting reliability, latency and
// energy figures.
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
	"syscall"
	"time"

	"github.com/digs-net/digs/internal/campaign"
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "digs-sim:", err)
		os.Exit(1)
	}
}

type options struct {
	topology   string
	protocol   string
	duration   time.Duration
	period     time.Duration
	flows      int
	jammers    int
	failNode   int
	seed       int64
	verbose    bool
	trace      string
	invariants bool
}

// summary is one scenario run's headline numbers.
type summary struct {
	Seed      int64
	Formation time.Duration
	PDR       float64
	Delivered int
	Sent      int
	LatMedian float64 // ms; NaN-free: zero when no latencies
	LatP90    float64
	LatMax    float64
	PowerMW   float64
}

func run(args []string) error {
	var opts options
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&opts.topology, "topology", "testbed-a",
		"deployment: "+scenario.TopologyNames)
	fs.StringVar(&opts.protocol, "protocol", "digs", "stack: "+stack.Names())
	fs.DurationVar(&opts.duration, "duration", 2*time.Minute, "measurement window")
	fs.DurationVar(&opts.period, "period", 5*time.Second, "packet period per flow")
	fs.IntVar(&opts.flows, "flows", 0, "number of random flows (0 = the deployment's suggested sources, or 8 random ones where it suggests none)")
	fs.IntVar(&opts.jammers, "jammers", 0, "WiFi jammers to enable (0..3)")
	fs.IntVar(&opts.failNode, "fail", 0,
		"node ID to fail mid-run (0 = none); a failed flow source stops generating, so its packets are not counted lost")
	fs.Int64Var(&opts.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&opts.verbose, "v", false, "print per-flow results and the slot loop's own counters")
	fs.StringVar(&opts.trace, "trace", "",
		"write a packet-lifecycle event trace (JSONL) to this file; analyse with digs-trace")
	fs.BoolVar(&opts.invariants, "invariants", false,
		"run the invariant monitor with self-healing watchdogs during the measurement window")
	reps := fs.Int("reps", 1, "independent repetitions (seed, seed+1, ...) aggregated at the end")
	parallel := fs.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	dumpNode := fs.Int("dump-schedule", 0,
		"print the combined-schedule roles of this node for one hyperperiod window and exit")
	specPath := fs.String("spec", "",
		"run a JSON scenario spec (\"-\" = stdin) through the shared executor and print its canonical result; bit-identical to a digs-server run of the same spec")
	warmDir := fs.String("warm", "", "with -spec: warm-start cache directory (shared with digs-server's warm pool)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, as flag.Parse does

	campaign.SetDefaultWorkers(*parallel)

	if *specPath != "" {
		return runSpecFile(*specPath, *warmDir, opts.trace)
	}
	if *warmDir != "" {
		return fmt.Errorf("-warm requires -spec")
	}

	if *reps <= 1 {
		var tr telemetry.Tracer
		if opts.trace != "" {
			f, err := os.Create(opts.trace)
			if err != nil {
				return err
			}
			defer f.Close()
			tr = telemetry.NewJSONL(f)
		}
		_, err := runScenario(opts, opts.seed, os.Stdout, *dumpNode, tr)
		if err != nil {
			return err
		}
		if tr != nil {
			if err := tr.Flush(); err != nil {
				return fmt.Errorf("trace %s: %w", opts.trace, err)
			}
			fmt.Printf("trace written to %s\n", opts.trace)
		}
		return nil
	}
	if *dumpNode > 0 {
		return fmt.Errorf("-dump-schedule is a single-run mode; drop -reps")
	}

	// Each repetition is an independent run with its own derived seed.
	// Runs buffer their output so the printed report reads identically
	// regardless of how the pool interleaved them. With -trace, each rep
	// writes its own job-stamped part; the parts merge in rep order, so
	// the combined trace is byte-identical at any worker count.
	type repOut struct {
		sum summary
		log bytes.Buffer
	}
	traces := telemetry.NewJobTraces(opts.trace, *reps)
	outs, err := campaign.Map(campaign.New(0), *reps, func(i int) (*repOut, error) {
		o := &repOut{}
		s, err := runScenario(opts, opts.seed+int64(i), &o.log, 0, traces.Tracer(i))
		if err != nil {
			return nil, fmt.Errorf("rep %d (seed %d): %w", i, opts.seed+int64(i), err)
		}
		o.sum = *s
		return o, nil
	})
	var pe *campaign.PanicError
	if errors.As(err, &pe) {
		return fmt.Errorf("rep %d (seed %d) panicked: %v\n%s",
			pe.Job, opts.seed+int64(pe.Job), pe.Value, pe.Stack)
	}
	if err != nil {
		return err
	}
	if err := traces.Write(os.Stdout, "reps"); err != nil {
		return err
	}

	var pdrs, medians, powers []float64
	for i, o := range outs {
		fmt.Printf("--- rep %d (seed %d) ---\n", i, o.sum.Seed)
		os.Stdout.Write(o.log.Bytes())
		pdrs = append(pdrs, o.sum.PDR)
		medians = append(medians, o.sum.LatMedian)
		powers = append(powers, o.sum.PowerMW)
	}
	fmt.Printf("\n=== aggregate over %d reps (workers=%d) ===\n", *reps, campaign.DefaultWorkers())
	fmt.Printf("PDR:               mean %.3f  min %.3f  max %.3f\n",
		metrics.Mean(pdrs), metrics.Min(pdrs), metrics.Max(pdrs))
	fmt.Printf("latency median:    mean %.0f ms\n", metrics.Mean(medians))
	fmt.Printf("power per packet:  mean %.3f mW\n", metrics.Mean(powers))
	return nil
}

// runSpecFile executes one JSON scenario spec through scenario.RunSpec —
// the exact code path digs-server uses — and prints the canonical result
// document on stdout (progress notes go to stderr). SIGINT/SIGTERM
// cancel the run at the next chunk boundary.
func runSpecFile(path, warmDir, tracePath string) error {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec scenario.Spec
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("decoding spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	hash, err := spec.Hash()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spec %s\n", hash)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ropts scenario.RunOpts
	if warmDir != "" {
		ropts.Warm = &snapshot.Cache{Dir: warmDir}
	}
	var traceFile *os.File
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		ropts.Tracer = telemetry.NewJSONL(traceFile)
	}

	res, rinfo, err := scenario.RunSpec(ctx, spec, ropts)
	if err != nil {
		return err
	}
	rhash, err := res.HashResult()
	if err != nil {
		return err
	}
	enc, err := res.Encode()
	if err != nil {
		return err
	}
	os.Stdout.Write(enc)
	fmt.Println()
	fmt.Fprintf(os.Stderr, "result %s (warm_hit=%v, wall %v)\n",
		rhash, rinfo.WarmHit, rinfo.Wall.Round(time.Millisecond))
	if traceFile != nil {
		fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)
	}
	return nil
}

// runScenario executes one full scenario and writes its progress report to
// w. When dumpNode is non-zero it prints that node's combined schedule and
// returns early with a nil summary. A non-nil tracer records the packet
// lifecycle of the whole run (the caller owns flushing it).
func runScenario(opts options, seed int64, w io.Writer, dumpNode int, tracer telemetry.Tracer) (*summary, error) {
	sc, err := scenario.Build(scenario.Params{
		TopologyName: opts.topology,
		Protocol:     opts.protocol,
		Seed:         seed,
		Period:       opts.period,
		Flows:        opts.flows,
	})
	if err != nil {
		return nil, err
	}
	nw, topo := sc.NW, sc.Params.Topology
	// The tracer rides from slot 0 here, so -trace records the formation
	// too; the full chain replaces it once the network has formed.
	if _, err := sc.Observe(tracer, false, nil); err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "topology %s: %d nodes (%d APs), protocol %s\n",
		topo.Name, topo.N(), topo.NumAPs, opts.protocol)

	// Form to the target a spec naming this deployment gets: full joins on
	// the testbeds, DefaultGenJoinFraction on generated plants.
	joinFraction, formTimeout := scenario.Spec{Topology: opts.topology}.FormTarget()
	formed, err := sc.Form(context.Background(), nil, joinFraction, formTimeout, 30*time.Second)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "network formed in %v\n", sim.TimeAt(formed.Slots))

	if dumpNode > 0 {
		return nil, dumpSchedule(w, nw, sc.Schedule, dumpNode)
	}

	// Optional mid-run failure, half the window in; its note prints after
	// the jammer lines, as the run saw them. The failure is scheduled from
	// the window's first slot, after everything Measure queues before the
	// run, so in the failure slot a packet due then is generated first.
	var failNote string
	if opts.failNode > 0 {
		half := nw.ASN() + sim.SlotsFor(opts.duration/2)
		victim := topology.NodeID(opts.failNode)
		nw.At(nw.ASN(), func() {
			nw.At(half, func() {
				nw.Fail(victim)
				failNote = fmt.Sprintf("node %d failed at %v\n", victim, sim.TimeAt(half))
			})
		})
	}
	m, err := sc.Measure(context.Background(), scenario.Spec{
		Window: scenario.Duration(opts.duration), Jammers: opts.jammers, Invariants: opts.invariants,
	}, tracer)
	if err != nil {
		return nil, err
	}
	for j, wifiCh := range m.Jammers {
		fmt.Fprintf(w, "jammer on node %d (WiFi channel %d)\n", topo.SuggestedJammers[j], wifiCh)
	}
	fmt.Fprint(w, failNote)

	// Report.
	res := &m.Result
	sum := &summary{
		Seed:      seed,
		Formation: sim.TimeAt(formed.Slots),
		PDR:       res.PDR,
		Delivered: res.Delivered,
		Sent:      res.Sent,
		LatMedian: res.LatencyMedianMs,
		LatP90:    res.LatencyP90Ms,
		LatMax:    res.LatencyMaxMs,
		PowerMW:   res.PowerPerPacketMW,
	}
	fmt.Fprintf(w, "\n=== results (%v window, %d flows, %v period) ===\n",
		opts.duration, res.Flows, opts.period)
	fmt.Fprintf(w, "PDR:                 %.3f (%d/%d packets)\n",
		sum.PDR, sum.Delivered, sum.Sent)
	if sum.Delivered > 0 {
		fmt.Fprintf(w, "latency median:      %.0f ms  (p90 %.0f ms, max %.0f ms)\n",
			sum.LatMedian, sum.LatP90, sum.LatMax)
	}
	fmt.Fprintf(w, "power per packet:    %.3f mW\n", sum.PowerMW)
	if m.Invariants != nil {
		invariant.WriteText(w, *m.Invariants)
	}
	if opts.verbose {
		for _, f := range sc.FlowSet {
			fmt.Fprintf(w, "  flow %2d (node %3d): PDR %.3f\n", f.ID, f.Source, m.Collector.FlowPDR(f.ID))
		}
		fmt.Fprintf(w, "slot loop over %d slots: %v\n", nw.ASN(), nw.LoopStats())
	}
	return sum, nil
}

// dumpSchedule prints the node's combined-schedule decisions for the next
// 600 slots (6 seconds): the autonomous schedule made visible.
func dumpSchedule(w io.Writer, nw *sim.Network, schedule func(int, sim.ASN) mac.Assignment, id int) error {
	if id < 1 || id > nw.Topology().N() {
		return fmt.Errorf("node %d outside the topology", id)
	}
	names := map[mac.SlotRole]string{
		mac.RoleSleep: ".", mac.RoleTxEB: "E", mac.RoleRxEB: "e",
		mac.RoleShared: "S", mac.RoleTxData: "T", mac.RoleRxData: "R",
	}
	fmt.Fprintf(w, "combined schedule of node %d from ASN %d "+
		"(E/e = EB tx/rx, S = shared, T/R = data tx/rx, . = sleep):\n", id, nw.ASN())
	base := nw.ASN()
	for row := 0; row < 12; row++ {
		fmt.Fprintf(w, "  %7d  ", base+int64(row*50))
		for col := 0; col < 50; col++ {
			a := schedule(id, base+int64(row*50+col))
			fmt.Fprint(w, names[a.Role])
		}
		fmt.Fprintln(w)
	}
	return nil
}
