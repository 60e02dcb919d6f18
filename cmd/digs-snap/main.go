// Command digs-snap takes, inspects, diffs and resumes deterministic
// simulation snapshots (see internal/snapshot). A snapshot captures the
// complete state of a scenario — simulator, MAC, protocol stacks, RNG
// stream positions — so resuming it is bit-identical to never having
// stopped. That makes it a branching tool: one converged network can seed
// any number of what-if continuations, and `diff` pinpoints where two
// branches that should agree first diverge.
//
// Examples:
//
//	digs-snap take -topology testbed-a -protocol digs -slots 30000 -o formed.snap
//	digs-snap info formed.snap
//	digs-snap resume -snap formed.snap -slots 6000 -o later.snap
//	digs-snap resume -snap formed.snap -plan fig8 -trace jam.jsonl
//	digs-snap diff later.snap other.snap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "digs-snap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: digs-snap <take|info|diff|resume> [flags]")
	}
	switch args[0] {
	case "take":
		return cmdTake(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "resume":
		return cmdResume(args[1:])
	default:
		return fmt.Errorf("unknown command %q (want take, info, diff or resume)", args[0])
	}
}

// cmdTake builds a scenario, runs it for a fixed number of slots and
// writes the snapshot.
func cmdTake(args []string) error {
	fs := flag.NewFlagSet("take", flag.ContinueOnError)
	topoName := fs.String("topology", "testbed-a", "deployment: "+scenario.TopologyNames)
	proto := fs.String("protocol", "digs", "stack: "+stack.Names())
	seed := fs.Int64("seed", 1, "simulation seed")
	slots := fs.Int64("slots", 0, "slots to run before taking the snapshot")
	period := fs.Duration("period", 5*time.Second, "flow packet period (dimensions the WirelessHART schedule)")
	label := fs.String("label", "", "snapshot label (default \"slot-<N>\")")
	out := fs.String("o", "", "output snapshot file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("take: -o is required")
	}
	sc, err := scenario.Build(scenario.Params{
		TopologyName: *topoName, Protocol: *proto, Seed: *seed, Period: *period,
	})
	if err != nil {
		return err
	}
	sc.NW.Run(*slots)
	lbl := *label
	if lbl == "" {
		lbl = fmt.Sprintf("slot-%d", sc.NW.ASN())
	}
	snap, err := sc.Take(lbl, nil)
	if err != nil {
		return err
	}
	if err := snapshot.WriteFile(*out, snap); err != nil {
		return err
	}
	fmt.Printf("snapshot of %s/%s seed %d at slot %d -> %s\n",
		*topoName, *proto, *seed, snap.Meta.Slot, *out)
	return nil
}

// cmdInfo prints a snapshot's metadata and state summary.
func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("info: one snapshot file argument required")
	}
	s, err := snapshot.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(snapshot.Summary(s))
	return nil
}

// cmdDiff compares two snapshots field by field; exit status 1 means they
// differ (so scripts can assert identity).
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("diff: two snapshot file arguments required")
	}
	a, err := snapshot.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := snapshot.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d := snapshot.Diff(a, b)
	if len(d) == 0 {
		fmt.Println("snapshots are identical")
		return nil
	}
	for _, line := range d {
		fmt.Println(line)
	}
	return fmt.Errorf("%d field(s) differ", len(d))
}

// cmdResume restores a snapshot into a fresh build and continues it:
// either plainly for -slots (optionally writing a new snapshot), or
// branching into a chaos plan with a recovery report.
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ContinueOnError)
	snapPath := fs.String("snap", "", "snapshot to resume (required)")
	slots := fs.Int64("slots", 0, "slots to run after restoring")
	label := fs.String("label", "", "label for the new snapshot (default \"slot-<N>\")")
	out := fs.String("o", "", "write the post-run snapshot here")
	planName := fs.String("plan", "", "branch into a chaos plan: a JSON file, or \"fig8\"")
	trace := fs.String("trace", "", "write the branch's telemetry trace (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapPath == "" {
		return errors.New("resume: -snap is required")
	}
	if *planName != "" && *out != "" {
		return errors.New("resume: -plan and -o are mutually exclusive (a plan leaves interferers behind, which snapshots refuse to capture)")
	}
	snap, err := snapshot.ReadFile(*snapPath)
	if err != nil {
		return err
	}
	sc, err := scenario.BuildFromMeta(snap.Meta)
	if err != nil {
		return err
	}
	if err := sc.Restore(snap); err != nil {
		return err
	}
	fmt.Printf("resumed %s/%s seed %d at slot %d\n",
		snap.Meta.Topology, snap.Meta.Protocol, snap.Meta.Seed, snap.Meta.Slot)

	if *planName != "" {
		return resumePlan(sc, *planName, *trace)
	}

	var jsonl telemetry.Tracer
	if *trace != "" {
		traceFile, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		jsonl = telemetry.NewJSONL(traceFile)
	}
	obs, err := sc.Observe(jsonl, false, nil)
	if err != nil {
		return err
	}
	sc.NW.Run(*slots)
	if err := obs.Close(); err != nil {
		return err
	}
	fmt.Printf("ran %d slot(s), now at slot %d\n", *slots, sc.NW.ASN())
	if *out != "" {
		lbl := *label
		if lbl == "" {
			lbl = fmt.Sprintf("slot-%d", sc.NW.ASN())
		}
		next, err := sc.Take(lbl, nil)
		if err != nil {
			return err
		}
		if err := snapshot.WriteFile(*out, next); err != nil {
			return err
		}
		fmt.Printf("snapshot -> %s\n", *out)
	}
	return nil
}

// resumePlan branches the restored scenario into a fault plan — the
// measured window of one digs-chaos job, without the formation — and
// prints the recovery table.
func resumePlan(sc *scenario.Scenario, planArg, tracePath string) error {
	spec, err := scenario.Spec{}.WithPlan(planArg)
	if err != nil {
		return err
	}
	rec := chaos.NewRecovery()
	var jsonl telemetry.Tracer
	if tracePath != "" {
		traceFile, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		jsonl = telemetry.NewJSONL(traceFile)
	}
	m, err := sc.Measure(context.Background(), spec, telemetry.Multi(rec, jsonl))
	if err != nil {
		return err
	}
	chaos.WriteReport(os.Stdout, m.Plan, rec)
	return nil
}
