// Command bench is the repository's benchmark: one harness, four named
// workloads, eight end-to-end metrics and a per-layer budget. See README.md
// in this directory for the glossary. run.sh builds and runs it:
//
//	bash bench/run.sh                   every workload, end-to-end metrics
//	bash bench/run.sh --trace 1         the same, then the per-layer metrics
//	bash bench/run.sh --aa              every workload twice; the runs must agree
//	bash bench/run.sh --workload scale-1k --seed 7 --seconds 10 --trace 0
//
// With --workload the process runs that one workload and prints, as its
// last line, one JSON object with the keys correct, attempted, failed and
// metrics. Without it the process runs each workload in a child process
// of its own, so that peak_rss_mb is per workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: each in a child process)")
		seed    = flag.Int64("seed", 15, "workload seed: the simulation seeds of the fresh ops derive from it")
		seconds = flag.Float64("seconds", 10, "how long the timed loop measures on the host this was sized on: it fixes the op count")
		trace   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		aa      = flag.Bool("aa", false, "run every workload twice, alternating order, and fail if the runs disagree")
		outDir  = flag.String("out", "bench/out", "directory for traces and for temporary data, which is removed")
		opSlots = flag.Int64("op-slots", 0, "scale workloads: slots per op (the -aa sensitivity check uses 500)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, OutDir: *outDir}
	var err error
	switch {
	case *name != "":
		err = child(*name, cfg, *trace == 1, *opSlots)
	case *aa:
		err = runAA(cfg)
	default:
		err = runAll(cfg, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// opsFor turns --seconds into a fixed op count at a workload's nominal
// rate; a traced run needs one op for each of its two loops.
func opsFor(perSecond, seconds float64) int {
	return max(2, int(math.Round(perSecond*seconds)))
}

// newWorkload builds the named workload at its full size.
func newWorkload(name string, cfg runConfig, opSlots int64) (workload, error) {
	switch name {
	case wlPaperRound:
		return newPaperRound(cfg.Seed, paperDefault(cfg.Seconds), cfg.OutDir), nil
	case wlScale1k, wlScaleSharded:
		size := scaleDefault(1, cfg.Seconds)
		if name == wlScaleSharded {
			size = scaleDefault(2, cfg.Seconds)
		}
		if opSlots > 0 {
			size.OpSlots = opSlots
		}
		return newScaleWorkload(size, cfg.OutDir), nil
	case wlService:
		return newServiceSession(cfg.Seed, serviceDefault(cfg.Seconds), cfg.OutDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// child runs one workload in this process and prints its two lines.
func child(name string, cfg runConfig, traced bool, opSlots int64) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, cfg, opSlots)
	if err != nil {
		return err
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	info, out, err := run(name, w, cfg)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for _, e := range info.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	return printLines(info, out)
}

func printLines(info runInfo, out outcome) error {
	for _, v := range []any{info, out} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// spawn runs one workload in a child process and parses its two lines.
func spawn(name string, cfg runConfig, traced bool, opSlots int64) (runInfo, outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return runInfo{}, outcome{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(cfg.Seed, 10),
		"--seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "--trace", trace,
		"--out", cfg.OutDir, "--op-slots", strconv.FormatInt(opSlots, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runInfo{}, outcome{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
	if len(lines) < 2 {
		return runInfo{}, outcome{}, fmt.Errorf("%s: child printed %d lines, want 2", name, len(lines))
	}
	var info runInfo
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return info, out, fmt.Errorf("%s: info line: %w", name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return info, out, fmt.Errorf("%s: outcome line: %w", name, err)
	}
	return info, out, nil
}

// printRun prints one run's metrics by name, in the table's order, then
// what they were measured over and on.
func printRun(info runInfo, out outcome, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-18s %-36s %14.4f %s\n", info.Workload, d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	h := info.Host
	fmt.Printf("%-18s ops=%d attempted=%d failed=%d correct=%v seed=%d | num_cpu=%d gomaxprocs=%d %s commit=%s (%s)\n",
		info.Workload, info.Ops, out.Attempted, out.Failed, out.Correct, info.Seed,
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.ShardsNote)
}

// runSet runs the workloads in the given order, each in a child process,
// and prints their metrics. It returns what they reported and, as
// problems, their failed ops and (untraced) scale digests that differ.
func runSet(order []workloadDef, cfg runConfig, traced bool) (map[string]runInfo, map[string]outcome, []error, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	infos, outs := map[string]runInfo{}, map[string]outcome{}
	var problems []error
	for _, wl := range order {
		info, out, err := spawn(wl.Name, cfg, traced, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		printRun(info, out, defs)
		infos[wl.Name], outs[wl.Name] = info, out
		if !out.Correct {
			problems = append(problems, fmt.Errorf("%s: %d failed ops: %s", wl.Name, out.Failed, strings.Join(info.Errors, "; ")))
		}
	}
	if a, b := infos[wlScale1k], infos[wlScaleSharded]; !traced && (a.Digest == "" || a.Digest != b.Digest) {
		problems = append(problems, fmt.Errorf("state digests differ: %s %q, %s %q", wlScale1k, a.Digest, wlScaleSharded, b.Digest))
	}
	return infos, outs, problems, nil
}

// runAll runs every workload once, and once more traced if asked.
func runAll(cfg runConfig, traced bool) error {
	_, _, problems, err := runSet(workloads, cfg, false)
	if err == nil && traced {
		var more []error
		_, _, more, err = runSet(workloads, cfg, true)
		problems = append(problems, more...)
	}
	if err != nil {
		return err
	}
	return errors.Join(problems...)
}

// worse returns by what share of a the value b is worse than a.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs every workload twice, in alternating order, and fails if an
// end-to-end metric differs by more than its bound or a simulated
// statistic or digest differs at all. Then it runs them traced, for the
// check on the reference kernel, and ends with the check that the timer
// tracks work done: scale-1k with ops of half the slots must have about
// half the op time.
func runAA(cfg runConfig) error {
	order := append([]workloadDef(nil), workloads...)
	firstInfo, first, errs, err := runSet(order, cfg, false)
	if err != nil {
		return err
	}
	slices.Reverse(order)
	infos, outs, more, err := runSet(order, cfg, false)
	if err != nil {
		return err
	}
	errs = append(errs, more...)
	for _, wl := range workloads {
		if infos[wl.Name].Digest != firstInfo[wl.Name].Digest {
			errs = append(errs, fmt.Errorf("%s: digest differs between the two runs", wl.Name))
		}
		for _, d := range endToEnd {
			a, b := first[wl.Name].Metrics[d.Name].Value, outs[wl.Name].Metrics[d.Name].Value
			switch {
			case strings.HasPrefix(d.Name, "sim_"):
				if a != b {
					errs = append(errs, fmt.Errorf("%s: %s is %v, then %v: simulated statistics must repeat exactly", wl.Name, d.Name, a, b))
				}
			case math.Max(worse(d, a, b), worse(d, b, a)) > d.Bound:
				errs = append(errs, fmt.Errorf("%s: %s is %v, then %v: more than the bound %.2f apart", wl.Name, d.Name, a, b, d.Bound))
			}
		}
	}

	// The reference kernel must take as long after an op as after itself,
	// on every workload, or the scaled metrics would carry what the ops
	// leave behind.
	_, traced, more, err := runSet(workloads, cfg, true)
	if err != nil {
		return err
	}
	errs = append(errs, more...)
	for _, wl := range workloads {
		if r := traced[wl.Name].Metrics["bench.ref_after_op_ratio"].Value; math.Abs(r-1) > refAfterOpTolerance {
			errs = append(errs, fmt.Errorf("%s: the reference kernel takes %.3f times as long after an op as after itself, want within %.2f of 1", wl.Name, r, refAfterOpTolerance))
		}
	}

	_, half, err := spawn(wlScale1k, cfg, false, scaleDefault(1, cfg.Seconds).OpSlots/2)
	if err != nil {
		return err
	}
	full := first[wlScale1k].Metrics[mOpMsP50].Value
	got := half.Metrics[mOpMsP50].Value
	fmt.Printf("%-18s %-36s %14.4f ms (full-size ops: %.4f ms)\n", wlScale1k, "op_ms_p50 at half the slots per op", got, full)
	if math.Abs(got-full/2) > 0.15*full/2 {
		errs = append(errs, fmt.Errorf("%s: op_ms_p50 %.3f ms at half the slots per op, %.3f ms at full: not within 15 %% of half", wlScale1k, got, full))
	}
	if len(errs) == 0 {
		fmt.Println("aa: the two sets of runs agree")
	}
	return errors.Join(errs...)
}
