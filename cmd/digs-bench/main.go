// Command digs-bench regenerates every table and figure of the paper's
// evaluation (Figures 3-5 of the Section IV empirical study and Figures
// 9-13 of Section VII) and prints the series each figure plots.
//
//	digs-bench -fig all          # everything, interactive scale
//	digs-bench -fig 9 -full      # Figure 9 at the paper's 300 flow sets
//	digs-bench -fig 3            # just the Network Manager update times
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/experiments"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "digs-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "all",
		"figure to regenerate: 3, 4, 5, 9, 9f, 10, 11, 11b, 12, 13, whart or all")
	full := flag.Bool("full", false, "paper-scale campaign sizes (slow)")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0,
		"campaign worker pool size (0 = GOMAXPROCS); campaigns are bit-identical at any setting")
	trace := flag.String("trace", "",
		"write the packet-lifecycle trace of the Figure 4/5 campaign (JSONL) to this file; requires -fig 4 or -fig 5")
	smoke := flag.Bool("smoke", false,
		"shrink the Figure 4/5 campaign to one run (2 jammers, 1 repetition) for CI smoke tests")
	invariants := flag.Bool("invariants", false,
		"run the invariant monitor with self-healing watchdogs during the Figure 4/5 campaign")
	snapCache := flag.String("snap-cache", "",
		"snapshot cache directory for the Figure 9/10/11 campaigns: formation restores from it when cached and populates it when not, with bit-identical figures")
	scaleSmoke := flag.Bool("scale-smoke", false,
		"briefly step a generated 10k-node deployment on the sparse medium under DiGS and Orchestra, then exit")
	flag.Parse()

	campaign.SetDefaultWorkers(*parallel)
	if *scaleSmoke {
		return runScaleSmoke(*seed)
	}
	if *trace != "" && *fig != "4" && *fig != "5" {
		return fmt.Errorf("-trace is only wired into the Figure 4/5 campaign; add -fig 4")
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	ran := false

	if want("3") {
		ran = true
		if err := fig3(); err != nil {
			return err
		}
	}
	if want("4") || want("5") {
		ran = true
		if err := fig4and5(*full, *smoke, *invariants, *seed, *trace); err != nil {
			return err
		}
	}
	if want("9") {
		ran = true
		if err := interferenceFigure("9", "A", *full, *seed, *snapCache); err != nil {
			return err
		}
	}
	if want("9f") {
		ran = true
		if err := fig9f(*seed); err != nil {
			return err
		}
	}
	if want("10") {
		ran = true
		if err := interferenceFigure("10", "B", *full, *seed, *snapCache); err != nil {
			return err
		}
	}
	if want("11") {
		ran = true
		if err := fig11(*full, *seed, *snapCache); err != nil {
			return err
		}
	}
	if want("11b") {
		ran = true
		if err := fig11b(*seed); err != nil {
			return err
		}
	}
	if want("12") {
		ran = true
		if err := fig12(*full, *seed); err != nil {
			return err
		}
	}
	if want("13") {
		ran = true
		if err := fig13(*seed); err != nil {
			return err
		}
	}
	if want("whart") {
		ran = true
		if err := whartStatic(*seed); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n===== %s =====\n", title)
}

func fig3() error {
	header("Figure 3: WirelessHART Network Manager update time")
	rows, err := experiments.RunFig3()
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %6s %10s %10s %12s %10s\n",
		"topology", "nodes", "collect", "compute", "disseminate", "total")
	for _, r := range rows {
		fmt.Printf("%-16s %6d %10.1fs %10.1fs %12.1fs %10.1fs\n",
			r.Topology, r.Nodes, r.Collect.Seconds(), r.Compute.Seconds(),
			r.Disseminate.Seconds(), r.Total.Seconds())
	}
	return nil
}

func fig4and5(full, smoke, invariants bool, seed int64, trace string) error {
	header("Figures 4 & 5: Orchestra repair under interference")
	opts := experiments.DefaultRepairOptions()
	opts.Seed = seed
	opts.Invariants = invariants
	if !full {
		opts.Repetitions = 2
	}
	if smoke {
		opts.JammerCounts = []int{2}
		opts.Repetitions = 1
	}

	// With -trace, every campaign job writes its own job-stamped JSONL
	// part; the parts merge in job order, so the combined trace is
	// byte-identical at any -parallel setting.
	traces := telemetry.NewJobTraces(trace, len(opts.JammerCounts)*opts.Repetitions)
	opts.Tracer = traces.Tracer

	rs, err := experiments.RunFig4And5(opts)
	if err != nil {
		return err
	}
	if err := traces.Write(os.Stdout, "jobs"); err != nil {
		return err
	}
	fmt.Println("Figure 4 - repair time CDF samples (seconds):")
	for _, p := range metrics.CDF(experiments.RepairTimesSeconds(rs)) {
		fmt.Printf("  %6.1f s  P=%.2f\n", p.Value, p.P)
	}
	fmt.Println("Figure 5 - PDR during repair, per jammer count:")
	byJammers := map[int][]float64{}
	for _, r := range rs {
		byJammers[r.Jammers] = append(byJammers[r.Jammers], r.FlowPDRs...)
	}
	for _, jc := range opts.JammerCounts {
		b := metrics.NewBoxplot(byJammers[jc])
		fmt.Printf("  %d jammer(s): min %.3f  q1 %.3f  median %.3f  q3 %.3f  max %.3f\n",
			jc, b.Min, b.Q1, b.Median, b.Q3, b.Max)
	}
	if invariants {
		var viol, reps int
		for _, r := range rs {
			viol += r.Violations
			reps += r.Repairs
		}
		fmt.Printf("Invariant monitor: %d violation(s), %d watchdog repair(s) across %d run(s)\n",
			viol, reps, len(rs))
	}
	return nil
}

func interferenceFigure(figName, testbed string, full bool, seed int64, snapCache string) error {
	header(fmt.Sprintf("Figure %s: DiGS vs Orchestra under interference (Testbed %s)",
		figName, testbed))
	opts := experiments.DefaultInterferenceOptions(testbed)
	opts.Seed = seed
	opts.CacheDir = snapCache
	if full {
		opts.FlowSets = 300
		if testbed == "B" {
			opts.FlowSets = 220
		}
	}
	res, err := experiments.RunInterference(opts)
	if err != nil {
		return err
	}
	printComparison(res, false)
	return nil
}

func printComparison(res *experiments.InterferenceResult, dutyCycle bool) {
	dPDR := experiments.PDRs(res.DiGS)
	oPDR := experiments.PDRs(res.Orchestra)
	fmt.Printf("(a) PDR over flow sets:\n")
	fmt.Printf("    %-10s mean %.3f±%.3f  median %.3f  worst %.3f  %%sets>0.95: %.0f%%\n",
		"DiGS", metrics.Mean(dPDR), 1.96*metrics.StdErr(dPDR), metrics.Quantile(dPDR, 0.5),
		metrics.Min(dPDR), 100*metrics.FractionAbove(dPDR, 0.95))
	fmt.Printf("    %-10s mean %.3f±%.3f  median %.3f  worst %.3f  %%sets>0.95: %.0f%%\n",
		"Orchestra", metrics.Mean(oPDR), 1.96*metrics.StdErr(oPDR), metrics.Quantile(oPDR, 0.5),
		metrics.Min(oPDR), 100*metrics.FractionAbove(oPDR, 0.95))
	fmt.Printf("    PDR CDF DiGS:      %s\n", metrics.SparkCDF(dPDR, "%.2f"))
	fmt.Printf("    PDR CDF Orchestra: %s\n", metrics.SparkCDF(oPDR, "%.2f"))

	dLat := experiments.AllLatenciesMs(res.DiGS)
	oLat := experiments.AllLatenciesMs(res.Orchestra)
	fmt.Printf("(b) latency (ms):\n")
	fmt.Printf("    %-10s median %6.0f  mean %6.0f  p90 %6.0f\n",
		"DiGS", metrics.Quantile(dLat, 0.5), metrics.Mean(dLat), metrics.Quantile(dLat, 0.9))
	fmt.Printf("    %-10s median %6.0f  mean %6.0f  p90 %6.0f\n",
		"Orchestra", metrics.Quantile(oLat, 0.5), metrics.Mean(oLat), metrics.Quantile(oLat, 0.9))

	if dutyCycle {
		dDuty := experiments.DutiesPerPacket(res.DiGS)
		oDuty := experiments.DutiesPerPacket(res.Orchestra)
		fmt.Printf("(c) duty cycle per received packet (%%):\n")
		fmt.Printf("    %-10s median %.4f\n", "DiGS", metrics.Quantile(dDuty, 0.5))
		fmt.Printf("    %-10s median %.4f\n", "Orchestra", metrics.Quantile(oDuty, 0.5))
		return
	}
	dPow := experiments.PowersPerPacket(res.DiGS)
	oPow := experiments.PowersPerPacket(res.Orchestra)
	fmt.Printf("(e) power per received packet (mW):\n")
	fmt.Printf("    %-10s median %.4f\n", "DiGS", metrics.Quantile(dPow, 0.5))
	fmt.Printf("    %-10s median %.4f\n", "Orchestra", metrics.Quantile(oPow, 0.5))
}

func microTable(res *experiments.MicrobenchResult) {
	fmt.Printf("flow \\ seq:")
	for s := res.FromSeq; s <= res.ToSeq; s++ {
		fmt.Printf(" %3d", s)
	}
	fmt.Println()
	for flow := uint16(1); int(flow) <= len(res.Delivered); flow++ {
		fmt.Printf("  flow %2d: ", flow)
		for s := res.FromSeq; s <= res.ToSeq; s++ {
			mark := "  ."
			if res.Delivered[flow][s] {
				mark = "  O"
			}
			fmt.Print(mark)
		}
		fmt.Println()
	}
}

func fig9f(seed int64) error {
	header("Figure 9(f): delivery micro-benchmark around a jammer burst")
	for _, proto := range []experiments.Protocol{experiments.DiGS, experiments.Orchestra} {
		res, err := experiments.RunFig9f(proto, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s (O = delivered, . = lost):\n", proto)
		microTable(res)
	}
	return nil
}

func fig11(full bool, seed int64, snapCache string) error {
	header("Figure 11: node failure tolerance")
	opts := experiments.DefaultFailureOptions()
	opts.Seed = seed
	opts.CacheDir = snapCache
	if full {
		opts.Repetitions = 34
	}
	digs, orch, err := experiments.RunFig11(opts)
	if err != nil {
		return err
	}
	fmt.Printf("(a) flow PDR with a failed router:\n")
	fmt.Printf("    %-10s mean %.3f  disconnected flows %d/%d\n",
		"DiGS", metrics.Mean(digs.FlowPDRs), digs.DisconnectedFlows, digs.TotalFlows)
	fmt.Printf("    %-10s mean %.3f  disconnected flows %d/%d\n",
		"Orchestra", metrics.Mean(orch.FlowPDRs), orch.DisconnectedFlows, orch.TotalFlows)
	fmt.Printf("(c) power per received packet during failures (mW, median):\n")
	fmt.Printf("    %-10s %.4f\n", "DiGS", metrics.Quantile(digs.PowerPerPacket, 0.5))
	fmt.Printf("    %-10s %.4f\n", "Orchestra", metrics.Quantile(orch.PowerPerPacket, 0.5))
	return nil
}

func fig11b(seed int64) error {
	header("Figure 11(b): delivery micro-benchmark around a router failure")
	for _, proto := range []experiments.Protocol{experiments.DiGS, experiments.Orchestra} {
		res, err := experiments.RunFig11b(proto, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s (router dies before seq 33; O = delivered, . = lost):\n", proto)
		microTable(res)
	}
	return nil
}

func fig12(full bool, seed int64) error {
	header("Figure 12: 150-node simulation with periodic disturbers")
	opts := experiments.DefaultLargeScaleOptions()
	opts.Seed = seed
	if full {
		opts.FlowSets = 300
	}
	res, err := experiments.RunFig12(opts)
	if err != nil {
		return err
	}
	printComparison(res, true)
	return nil
}

// whartStatic contrasts the executable centralized baseline against the
// adaptive stacks under a router failure: the static schedule's PDR before
// and after (it never recovers — Figure 3 explains why).
func whartStatic(seed int64) error {
	header("Extra: static WirelessHART schedule under a router failure")
	clean, failed, err := experiments.RunWhartFailure(seed)
	if err != nil {
		return err
	}
	fmt.Printf("  clean PDR:          %.3f\n", clean)
	fmt.Printf("  after failure PDR:  %.3f (permanent until the manager pushes\n", failed)
	fmt.Printf("                      a new schedule, which Figure 3 prices in minutes)\n")
	return nil
}

func fig13(seed int64) error {
	header("Figure 13: network initialization (joining time CDF)")
	res, err := experiments.RunFig13(seed)
	if err != nil {
		return err
	}
	summarize := func(name string, ds []time.Duration) {
		var s []float64
		for _, d := range ds {
			s = append(s, d.Seconds())
		}
		fmt.Printf("  %-10s mean %5.1f s  median %5.1f s  p90 %5.1f s  max %5.1f s\n",
			name, metrics.Mean(s), metrics.Quantile(s, 0.5),
			metrics.Quantile(s, 0.9), metrics.Max(s))
	}
	summarize("DiGS", res.DiGS)
	summarize("Orchestra", res.Orchestra)
	return nil
}
