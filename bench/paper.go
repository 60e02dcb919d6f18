package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"maps"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
)

// stackPrefix maps a registered stack to the per-layer metric prefix of
// the module that implements it.
var stackPrefix = map[string]string{
	"digs":      "core.",
	"orchestra": "orchestra.",
	"whart":     "whart.",
	"sdn":       "controller.sdn_",
	"adaptive":  "controller.adaptive_",
}

// stackLayer is the module a stack's spans are filed under.
func stackLayer(stack string) string {
	return strings.SplitN(stackPrefix[stack], ".", 2)[0]
}

// formTimeout is RunSpec's formation budget on the named testbeds.
const formTimeout = 6 * time.Minute

// paperSizing sizes the paper-round workload; the smoke test shrinks it.
type paperSizing struct {
	Topology   string
	WarmRounds int // set-up rounds, so that setup_s is a second or more
	Ops        int // timed rounds
	LegSeeds   int // seeds per decomposition leg of the traced run
}

// paperRoundsPerSecond turns --seconds into a round count: a round takes
// about 0.4 s on the 2-core host this was sized on.
const paperRoundsPerSecond = 2.5

func paperDefault(seconds float64) paperSizing {
	return paperSizing{Topology: "testbed-a", WarmRounds: 3, Ops: opsFor(paperRoundsPerSecond, seconds), LegSeeds: 5}
}

// legTimes are the times, in ms, of the public calls a cold RunSpec is
// made of, run on their own for one spec, and of that RunSpec.
type legTimes struct {
	topo, build, form, run float64
	formSlots, slots       int64     // to the join target; in all
	mac                    macTotals // MAC counters over the formation
}

// window is what is left of the run after the legs that precede it: the
// measurement window with its flows, its fault plan and the result fold,
// which only RunSpec itself runs.
func (l legTimes) window() float64 { return l.run - l.topo - l.build - l.form }

// stackRuns are one stack's RunSpec calls over the traced rounds.
type stackRuns struct {
	ms, formSlots []float64
	slots         int64 // simulated slots, formation included
}

// paperRound is the paper's envelope: op = one round, a cold RunSpec of
// every registered stack on the same deployment and seed under the fig8
// jammers.
type paperRound struct {
	seed   int64
	size   paperSizing
	stacks []string
	outDir string

	results               resultStats // of the pinned timed rounds
	sdnRuns, sdnFormFails int
	hashes                hash.Hash // over every timed result's hash, in order
	round0                map[string][]byte

	runs map[string]*stackRuns
}

func newPaperRound(seed int64, size paperSizing, outDir string) *paperRound {
	return &paperRound{seed: seed, size: size, stacks: scenario.RegisteredStacks(), outDir: outDir}
}

// roundSeed derives simulation seed r from a base seed.
func roundSeed(seed int64, r int) int64 {
	return int64(uint64(campaign.Seed(seed, r)) >> 1)
}

// spec is round r's spec for one stack: r follows opSeed's pinning.
func (p *paperRound) spec(r int, stack string) scenario.Spec {
	seed, _ := opSeed(p.seed, r)
	return scenario.Spec{
		Topology: p.size.Topology, Protocol: stack, Seed: seed,
		PlanName: "fig8", JoinFraction: 0.9, Window: scenario.Duration(60 * time.Second),
	}
}

func (p *paperRound) ops() int { return p.size.Ops }

func (p *paperRound) setup(_ *tracer) error {
	*p = *newPaperRound(p.seed, p.size, p.outDir)
	p.hashes = sha256.New()
	p.round0 = map[string][]byte{}
	p.runs = map[string]*stackRuns{}
	for k := 0; k < p.size.WarmRounds; k++ {
		for _, st := range p.stacks {
			_, _, err := scenario.RunSpec(context.Background(), p.spec(-1-k, st), scenario.RunOpts{})
			if err != nil && !isSDNFormFail(st, err) {
				return err
			}
		}
	}
	return nil
}

// isSDNFormFail reports the one RunSpec error that is a simulated outcome
// and not a failed op: sdn has no local repair by design and now and then
// misses the join target before the formation timeout.
func isSDNFormFail(stack string, err error) bool {
	return stack == "sdn" && strings.Contains(err.Error(), "joined during formation")
}

func (p *paperRound) op(i int, tr *tracer) (int64, error) {
	_, pinned := opSeed(p.seed, i)
	var slots int64
	var firstErr error
	for _, st := range p.stacks {
		spec := p.spec(i, st)
		id := tr.begin(stackLayer(st), "run:"+st)
		start := time.Now()
		res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
		ms := msSince(start)
		tr.end(id)
		if st == "sdn" {
			p.sdnRuns++
		}
		if err != nil {
			if !isSDNFormFail(st, err) {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", st, err)
				}
				continue
			}
			p.sdnFormFails++
			slots += sim.SlotsFor(formTimeout)
			if pinned {
				p.results.addFormFail(formTimeout)
			}
			continue
		}
		enc, err := checkResult(spec, res)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", st, err)
		}
		slots += res.FinalSlot
		if pinned {
			p.results.add(res)
		}
		sum := sha256.Sum256(enc)
		p.hashes.Write(sum[:])
		if i == 0 {
			p.round0[st] = enc
		}
		if tr != nil {
			r := p.runs[st]
			if r == nil {
				r = &stackRuns{}
				p.runs[st] = r
			}
			r.ms = append(r.ms, ms)
			r.formSlots = append(r.formSlots, float64(res.FormationSlots))
			r.slots += res.FinalSlot
		}
	}
	return slots, firstErr
}

func (p *paperRound) mark() {}

// checkResult verifies one result against its spec and returns its
// encoding.
func checkResult(spec scenario.Spec, res *scenario.Result) ([]byte, error) {
	want, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	enc, err := res.Encode()
	if err != nil {
		return nil, err
	}
	if res.SpecHash != want {
		return enc, fmt.Errorf("result spec_hash %s, spec hashes to %s", res.SpecHash, want)
	}
	return enc, nil
}

func (p *paperRound) sim() simStats { return p.results.stats() }

// digest covers the result of every stack of every timed round.
func (p *paperRound) digest() string { return hex.EncodeToString(p.hashes.Sum(nil)) }

// verify re-runs round 0 and demands byte-identical results.
func (p *paperRound) verify() (int, []error) {
	var errs []error
	for _, st := range p.stacks {
		want, ok := p.round0[st]
		if !ok {
			continue // round 0 already failed or sdn missed its join
		}
		res, _, err := scenario.RunSpec(context.Background(), p.spec(0, st), scenario.RunOpts{})
		if err != nil {
			errs = append(errs, fmt.Errorf("round 0 re-run, %s: %w", st, err))
			continue
		}
		if got, _ := res.Encode(); !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("round 0 re-run, %s: result bytes differ", st))
		}
	}
	return 1, errs
}

// specLegs runs the public calls a cold RunSpec of the spec starts with,
// one span each, then that RunSpec. It returns the formed scenario the
// legs built.
func specLegs(tr *tracer, s scenario.Spec) (legTimes, *scenario.Scenario, error) {
	var l legTimes
	cs := s.Canonical()
	params := cs.Params()

	id := tr.begin(layerTopology, "build")
	start := time.Now()
	topo, err := scenario.PickTopology(params.TopologyName)
	l.topo = msSince(start)
	tr.end(id)
	if err != nil {
		return l, nil, err
	}
	params.Topology = topo

	id = tr.begin(layerScenario, "build")
	start = time.Now()
	sc, err := scenario.Build(params)
	l.build = msSince(start)
	tr.end(id)
	if err != nil {
		return l, nil, err
	}

	id = tr.begin(layerSim, "form")
	start = time.Now()
	l.formSlots, err = form(sc, joinTarget(cs.JoinFraction, topo.N()), formTimeout)
	l.form = msSince(start)
	tr.end(id)
	if err != nil {
		return l, nil, err
	}
	l.mac = sumMAC(sc)

	id = tr.begin(layerScenario, "runspec")
	start = time.Now()
	res, _, err := scenario.RunSpec(context.Background(), s, scenario.RunOpts{})
	l.run = msSince(start)
	tr.end(id)
	if err != nil {
		return l, nil, err
	}
	if res.FormationSlots != l.formSlots {
		return l, nil, fmt.Errorf("the formation leg took %d slots, RunSpec's formation %d: the legs are not the run's", l.formSlots, res.FormationSlots)
	}
	l.slots = res.FinalSlot
	return l, sc, nil
}

// lineCounter counts the JSONL events a tracer writes.
type lineCounter struct{ lines int64 }

func (c *lineCounter) Write(b []byte) (int, error) {
	c.lines += int64(bytes.Count(b, []byte{'\n'}))
	return len(b), nil
}

// toggles are RunSpec's times, in ms, for the digs leg specs: plain, and
// with one feature toggled at a time. Each spec's runs follow one another,
// so that the host's drift falls on both sides of every ratio.
type toggles struct {
	cache                                  *snapshot.Cache
	plain, noPlan, inv, traced, cold, warm []float64
	events, kslots                         float64
	legs, warmWindow                       float64 // summed over the specs, for the budget
}

// run times the toggled runs of one digs spec whose legs are l.
func (t *toggles) run(s scenario.Spec, l legTimes) error {
	timeRun := func(s scenario.Spec, o scenario.RunOpts, into *[]float64) (*scenario.Result, scenario.RunInfo, error) {
		start := time.Now()
		res, info, err := scenario.RunSpec(context.Background(), s, o)
		*into = append(*into, msSince(start))
		return res, info, err
	}
	t.plain = append(t.plain, l.run)
	off := s
	off.PlanName = ""
	if _, _, err := timeRun(off, scenario.RunOpts{}, &t.noPlan); err != nil {
		return err
	}
	on := s
	on.Invariants = true
	if _, _, err := timeRun(on, scenario.RunOpts{}, &t.inv); err != nil {
		return err
	}
	var lc lineCounter
	res, _, err := timeRun(s, scenario.RunOpts{Tracer: telemetry.NewJSONL(&lc)}, &t.traced)
	if err != nil {
		return err
	}
	t.events += float64(lc.lines)
	t.kslots += float64(res.WindowSlots) / 1000
	if _, info, err := timeRun(s, scenario.RunOpts{Warm: t.cache}, &t.cold); err != nil || info.WarmHit {
		return fmt.Errorf("cold RunSpec with an empty warm cache: hit=%v err=%v", info.WarmHit, err)
	}
	if _, info, err := timeRun(s, scenario.RunOpts{Warm: t.cache}, &t.warm); err != nil || !info.WarmHit {
		return fmt.Errorf("warm RunSpec after a cold one: hit=%v err=%v", info.WarmHit, err)
	}
	t.legs += l.topo + l.build + l.form
	t.warmWindow += t.warm[len(t.warm)-1] - l.topo - l.build
	return nil
}

// legSpec is the spec of decomposition leg k for one stack; the legs' seeds
// are pinned, apart from the ops'.
func (p *paperRound) legSpec(k int, stack string) scenario.Spec {
	s := p.spec(0, stack)
	s.Seed = roundSeed(guardSeed, 1_000_000+k)
	return s
}

func (p *paperRound) layers(tr *tracer, untraced, traced *loopResult) (map[string]float64, error) {
	m := map[string]float64{}

	// What the traced ops' RunSpec calls took, by stack.
	for _, st := range p.stacks {
		r := p.runs[st]
		if r == nil {
			continue
		}
		pre := stackPrefix[st]
		m[pre+"run_ms_p50"] = median(r.ms)
		m[pre+"form_slots_p50"] = median(r.formSlots)
		m[pre+"us_per_slot"] = sumS(r.ms) * 1e6 / float64(r.slots)
	}
	if p.sdnRuns > 0 {
		m["controller.sdn_form_fail_ratio"] = float64(p.sdnFormFails) / float64(p.sdnRuns)
	}

	dir, err := os.MkdirTemp(p.outDir, "paper-legs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The legs of a cold run, over LegSeeds rounds of every stack, and the
	// toggled runs of the digs specs among them.
	var topo, build, formMs, window []float64
	var simMs, runMs float64
	var slots, macSlots int64
	var mac macTotals
	tg := toggles{cache: &snapshot.Cache{Dir: dir}}
	var formed *scenario.Scenario // the last digs deployment the legs formed
	for k := 0; k < p.size.LegSeeds; k++ {
		for _, st := range p.stacks {
			spec := p.legSpec(k, st)
			l, sc, err := specLegs(tr, spec)
			if err != nil {
				if isSDNFormFail(st, err) {
					continue
				}
				return nil, fmt.Errorf("%s legs: %w", st, err)
			}
			topo = append(topo, l.topo)
			build = append(build, l.build)
			formMs = append(formMs, l.form)
			window = append(window, l.window())
			simMs += l.form + l.window()
			runMs += l.run
			slots += l.slots
			mac.add(l.mac)
			macSlots += sc.NW.ASN()
			if st == "digs" {
				if err := tg.run(spec, l); err != nil {
					return nil, err
				}
				formed = sc
			}
		}
	}
	if formed == nil {
		return nil, errors.New("no digs leg ran")
	}
	m["topology.build_ms"] = median(topo)
	m["scenario.build_ms"] = median(build)
	m["sim.form_ms_p50"] = median(formMs)
	m["sim.window_ms_p50"] = median(window)
	m["sim.dense_us_per_slot"] = simMs * 1e3 / float64(slots)
	m["share.sim"] = simMs / runMs
	// The legs' MAC counters cover the formations: the windows run inside
	// RunSpec, out of the harness's sight.
	mac.into(m, macSlots)

	base := median(tg.plain)
	m["chaos.overhead_ratio"] = base / median(tg.noPlan)
	m["invariant.overhead_ratio"] = median(tg.inv) / base
	m["telemetry.overhead_ratio"] = median(tg.traced) / base
	m["telemetry.events_per_kslot"] = tg.events / tg.kslots
	m["scenario.runspec_cold_ms_p50"] = median(tg.cold)
	m["scenario.runspec_warm_ms_p50"] = median(tg.warm)
	if m["campaign.parallel_speedup"], err = p.parallelSpeedup(); err != nil {
		return nil, err
	}

	// Snapshot and storage legs on the formed, unjammed digs deployment.
	_, rt, err := roundTrip(tr, formed)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, rt)
	st, err := storageLegs(tr, formed, dir)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, st)

	// The parts must sum. A warm run is a cold one with the formation
	// replaced by a cache load and a restore, so it measures the window a
	// second time, apart from the cold run the legs' window is taken from.
	n := float64(len(tg.plain))
	budget := tg.legs + tg.warmWindow - n*(m["snapshot.cache_load_ms"]+m["snapshot.restore_ms"])
	m["scenario.budget_gap_ratio"] = math.Abs(sumS(tg.plain)*1e3-budget) / (sumS(tg.plain) * 1e3)
	return m, nil
}

// parallelSpeedup is what campaign.Map buys on this host: ten digs runs
// on one worker over the same on one worker per CPU.
func (p *paperRound) parallelSpeedup() (float64, error) {
	const jobs = 10
	run := func(workers int) (float64, error) {
		start := time.Now()
		_, err := campaign.Map(campaign.New(workers), jobs, func(i int) (struct{}, error) {
			_, _, err := scenario.RunSpec(context.Background(), p.legSpec(i, "digs"), scenario.RunOpts{})
			return struct{}{}, err
		})
		return msSince(start), err
	}
	one, err := run(1)
	if err != nil {
		return 0, err
	}
	all, err := run(runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	return one / all, nil
}

func (p *paperRound) purity(tr *tracer, _ map[string]float64) error {
	if n := tr.countInOps(layerServer, layerGateway); n > 0 {
		return fmt.Errorf("paper-round: %d server/gateway spans inside its ops, want none", n)
	}
	return nil
}

func (p *paperRound) close() error { return nil }
