package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
)

// processStart anchors setup_s: the first set-up is timed from here, so
// runtime start and flag parsing count as set-up.
var processStart = time.Now()

// workload is one closed-loop load: set-up, then homogeneous ops issued
// one after the other by a single goroutine.
type workload interface {
	// setup builds the workload's state from nothing up to the first
	// timed op, warm-up included, discarding the state of an earlier call.
	// Every call does the same work.
	setup(tr *tracer) error
	// op runs timed op i and returns the simulated slots it advanced. An
	// error is a failed op; the loop goes on.
	op(i int, tr *tracer) (slots int64, err error)
	// ops is the fixed number of timed ops. The count, not a deadline, ends
	// the loop, so that every run of a seed times the same ops and the
	// simulated statistics repeat exactly whatever the host's speed.
	ops() int
	// sim returns the simulated statistics of the timed ops.
	sim() simStats
	// digest fingerprints the simulated state the timed ops reached.
	digest() string
	// verify runs the post-run checks; each is one more attempted op and
	// each returned error one more failed op.
	verify() (checks int, errs []error)
	// mark is called once between the traced run's untraced and traced
	// loops, for the counters whose deltas the traced loop reports.
	mark()
	// layers computes the traced run's per-layer metrics from the spans
	// and the workload's own counters, running its decomposition legs.
	layers(tr *tracer, untraced, traced *loopResult) (map[string]float64, error)
	// purity checks the traced run's workload-purity assertions.
	purity(tr *tracer, m map[string]float64) error
	close() error
}

// guardSeed derives the simulation seeds of the pinned ops. On
// paper-round and service-session the even ops run these seeds whatever
// --seed is, and the simulated statistics are taken over them alone; the
// odd ops run seeds derived from --seed. The statistics are therefore
// constants of the program: between two commits they differ only when the
// simulation changed, never by sampling, which is what lets their bounds be
// 1 %. Host time is measured over all ops, so it sees fresh inputs on
// every seed.
const guardSeed = 15

// opSeed is the simulation seed of op i (warm-up ops have negative i and
// are pinned too, so that every set-up does the same work) and whether it
// is pinned.
func opSeed(seed int64, i int) (int64, bool) {
	if i < 0 || i%2 == 0 {
		return roundSeed(guardSeed, i), true
	}
	return roundSeed(seed, i), false
}

// slotMs is one simulated slot in ms.
var slotMs = float64(sim.TimeAt(1)) / 1e6

// simStats are a workload's statistics in simulated time, which the
// simulator counts in slots.
type simStats struct {
	PDR             float64
	LatencyP50Slots float64
	LatencyP90Ms    float64
	FormationSlots  float64
}

// resultStats folds scenario results into simStats: the mean of each
// result's PDR, formation time and latency quantiles.
type resultStats struct {
	pdr, formSlots, latP50, latP90 []float64
}

func (r *resultStats) add(res *scenario.Result) {
	r.pdr = append(r.pdr, res.PDR)
	r.formSlots = append(r.formSlots, float64(res.FormationSlots))
	if res.Delivered > 0 {
		r.latP50 = append(r.latP50, res.LatencyMedianMs/slotMs)
		r.latP90 = append(r.latP90, res.LatencyP90Ms)
	}
}

// addFormFail counts a run that missed its join target: it delivered
// nothing and took the whole formation budget.
func (r *resultStats) addFormFail(timeout time.Duration) {
	r.pdr = append(r.pdr, 0)
	r.formSlots = append(r.formSlots, float64(sim.SlotsFor(timeout)))
}

func (r *resultStats) stats() simStats {
	return simStats{PDR: mean(r.pdr), FormationSlots: mean(r.formSlots),
		LatencyP50Slots: mean(r.latP50), LatencyP90Ms: mean(r.latP90)}
}

// hostInfo labels every output with the host it was measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// ShardsNote says what the fixed Shards: 2 of scale-1k-sharded means
	// on this host.
	ShardsNote string `json:"shards_note"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		ShardsNote: "2 shards on >=2 CPUs: real parallelism",
	}
	if h.GOMAXPROCS < 2 {
		h.ShardsNote = "2 shards on 1 CPU: time-slicing, not parallelism"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// loopResult is what one timed loop measured.
type loopResult struct {
	OpMs  []float64 // per-op wall time, in issue order
	RefMs []float64 // the reference kernel's time after each op
	// AgainMs is a second kernel's time right after the first (paired loops
	// only): it ran after the harness's own quiet work, not after an op.
	AgainMs []float64
	Slots   int64 // simulated slots advanced
	Failed  int
	Errs    []error
}

// scaled returns the op times at the reference host speed: each op's wall
// time times refNominalMs over its neighbouring kernel's time.
func (r *loopResult) scaled() []float64 {
	out := make([]float64, len(r.OpMs))
	for i, ms := range r.OpMs {
		out[i] = ms * refNominalMs / r.RefMs[i]
	}
	return out
}

// hostSpeed is the host's speed over the loop against the sizing host
// when quiet: 1 is as fast, 0.8 a fifth slower.
func (r *loopResult) hostSpeed() float64 { return refNominalMs / median(r.RefMs) }

// refAfterOp is the median of the kernel's time after an op over its time
// after another kernel: 1 when the op leaves nothing behind that reaches
// the kernel.
func (r *loopResult) refAfterOp() float64 {
	ratios := make([]float64, len(r.AgainMs))
	for i, again := range r.AgainMs {
		ratios[i] = r.RefMs[i] / again
	}
	return median(ratios)
}

// busyS is the timed interval: the sum of the op times. With one
// closed-loop client the only gap between ops is the harness's own
// bookkeeping and the reference kernel, which are excluded by
// construction.
func (r *loopResult) busyS() float64 { return sumS(r.OpMs) }

func sumS(ms []float64) float64 {
	total := 0.0
	for _, v := range ms {
		total += v
	}
	return total / 1e3
}

func (r *loopResult) p50() float64 { return median(r.OpMs) }

// timedLoop issues the n ops first, first+1, ... one after the other, the
// reference kernel after each, and a second kernel after that if paired.
func timedLoop(w workload, tr *tracer, ref *refKernel, first, n int, paired bool) *loopResult {
	res := &loopResult{}
	for i := first; i < first+n; i++ {
		tr.setOp(i)
		start := time.Now()
		id := tr.begin(layerBench, spanOp)
		slots, err := w.op(i, tr)
		tr.end(id)
		res.OpMs = append(res.OpMs, msSince(start))
		res.RefMs = append(res.RefMs, ref.run())
		if paired {
			res.AgainMs = append(res.AgainMs, ref.run())
		}
		res.Slots += slots
		if err != nil {
			res.Failed++
			res.Errs = append(res.Errs, fmt.Errorf("op %d: %w", i, err))
		}
	}
	return res
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a workload process prints.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is the line a workload process prints before its outcome:
// what the numbers were measured on and over.
type runInfo struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	Ops      int      `json:"ops"`
	// HostSpeed is the reference kernel's nominal time over its median time
	// in this run, and RawOpMsP50 the median op time before scaling by it.
	HostSpeed  float64 `json:"host_speed"`
	RawOpMsP50 float64 `json:"raw_op_ms_p50"`
	// RawSetupsS are the set-ups' wall times before scaling, in order.
	RawSetupsS []float64 `json:"raw_setups_s,omitempty"`
	// Digest fingerprints the simulated state the ops reached; equal
	// seeds must give equal digests, and the two scale workloads must
	// agree with each other.
	Digest string `json:"digest"`
	// Measured lists the per-layer metrics this workload measured in a
	// traced run; the others read 0 because their layer did no work.
	Measured []string `json:"measured,omitempty"`
	Errors   []string `json:"errors,omitempty"`
}

// runConfig parameterises one workload run.
type runConfig struct {
	Seed    int64
	Seconds float64
	OutDir  string
}

// setupReps is how often an untraced run sets up; setup_s is the median.
const setupReps = 3

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func errStrings(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// runUntraced measures the end-to-end metrics: set up setupReps times
// (setup_s is the median, each set-up scaled by the kernel run after it),
// run the timed loop on the last set-up, verify.
func runUntraced(name string, w workload, cfg runConfig) (runInfo, outcome, error) {
	info := runInfo{Workload: name, Seed: cfg.Seed, Host: readHost(), Ops: w.ops()}
	ref := newRefKernel()
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart // the kernel's own construction is set-up too
		}
		if err := w.setup(nil); err != nil {
			return info, outcome{}, fmt.Errorf("set-up %d: %w", rep, err)
		}
		s := time.Since(start).Seconds()
		info.RawSetupsS = append(info.RawSetupsS, s)
		setups = append(setups, s*refNominalMs/ref.run())
	}
	loop := timedLoop(w, nil, ref, 0, w.ops(), false)
	// The high-water mark is read before the checks, which build plants of
	// their own: it is the set-ups' and the timed loop's.
	rss, err := peakRSSMB()
	if err != nil {
		return info, outcome{}, err
	}
	scaled := loop.scaled()
	info.HostSpeed, info.RawOpMsP50 = loop.hostSpeed(), loop.p50()
	checks, verrs := w.verify()
	st := w.sim()
	vals := map[string]float64{
		mSetupS:       median(setups),
		mOpsPerS:      float64(len(scaled)) / sumS(scaled),
		mOpMsP50:      median(scaled),
		mSlotsPerS:    float64(loop.Slots) / sumS(scaled),
		mPeakRSSMB:    rss,
		mSimPDR:       st.PDR,
		mSimLatency:   st.LatencyP50Slots,
		mSimFormation: st.FormationSlots,
	}
	errs := append(loop.Errs, verrs...)
	info.Digest = w.digest()
	info.Errors = errStrings(errs)
	out := outcome{
		Correct:   len(errs) == 0,
		Attempted: len(loop.OpMs) + checks,
		Failed:    len(errs),
		Metrics:   withUnits(endToEnd, vals),
	}
	return info, out, nil
}

// runTraced measures the per-layer metrics: half the ops untraced, half
// traced (their ratio is the tracing overhead), then the workload's
// decomposition legs. The spans go to OutDir.
func runTraced(name string, w workload, cfg runConfig) (runInfo, outcome, error) {
	info := runInfo{Workload: name, Seed: cfg.Seed, Trace: true, Host: readHost(), Ops: w.ops()}
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		return info, outcome{}, fmt.Errorf("set-up: %w", err)
	}
	ref := newRefKernel()
	half := w.ops() / 2
	untraced := timedLoop(w, nil, ref, 0, half, true)
	w.mark()
	traced := timedLoop(w, tr, ref, half, w.ops()-half, false)
	vals, err := w.layers(tr, untraced, traced)
	if err != nil {
		return info, outcome{}, fmt.Errorf("layer metrics: %w", err)
	}
	vals["bench.trace_overhead_ratio"] = median(traced.scaled()) / median(untraced.scaled())
	vals["bench.op_ms_p90"] = metrics.Quantile(untraced.scaled(), 0.9)
	vals["bench.raw_op_ms_p50"] = untraced.p50()
	vals["bench.host_speed"] = untraced.hostSpeed()
	vals["bench.ref_after_op_ratio"] = untraced.refAfterOp()
	vals["sim.latency_p90_ms"] = w.sim().LatencyP90Ms
	for k := range vals {
		info.Measured = append(info.Measured, k)
	}
	sort.Strings(info.Measured)
	errs := append(untraced.Errs, traced.Errs...)
	if err := w.purity(tr, vals); err != nil {
		errs = append(errs, fmt.Errorf("purity: %w", err))
	}
	if err := tr.write(cfg.OutDir, name, info.Host); err != nil {
		return info, outcome{}, err
	}
	info.Digest = w.digest()
	info.Errors = errStrings(errs)
	out := outcome{
		Correct:   len(errs) == 0,
		Attempted: info.Ops + 1,
		Failed:    len(errs),
		Metrics:   withUnits(perLayer, vals),
	}
	return info, out, nil
}
