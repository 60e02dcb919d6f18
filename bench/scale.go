package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
)

// scaleSizing sizes the scale workloads; the smoke test shrinks it.
type scaleSizing struct {
	Topology string
	Shards   int
	OpSlots  int64
	WarmOps  int
	Ops      int // timed ops
	Flows    int
	Period   time.Duration
	// DigestOps is the op count after which the workload fingerprints its
	// state; both scale workloads use the same count, so that their
	// digests can be compared.
	DigestOps int
	// RefOps is how many ops a one-shard reference runs after the same
	// set-up for the sharded workload's equivalence check (0 = none).
	RefOps int
}

// plantSeed is the simulation seed of the scale workloads' plant and of
// its flows' sources. The whole simulation is pinned: --seed does not enter
// it. A run is one simulation, not a sample of many, and the plant is
// chaotic: shifting every flow by one slot moved its PDR from 0.44 to 0.48,
// and ten such shifts spread it over 0.44-0.57. Any dependence on --seed
// would put that spread on sim_pdr, and no bound below it could be held.
const plantSeed = 3

// Ops per second of --seconds on the 2-core host this was sized on: an op
// of 1000 slots takes about 0.1 s on one shard and 0.15 s on two. Both
// workloads fingerprint their state after the same number of ops.
const (
	scaleOpsPerSecond   = 10
	shardedOpsPerSecond = 6.5
	digestOpsPerSecond  = 6
)

// scaleDefault sizes scale-1k (shards 1) or scale-1k-sharded (shards 2).
// The 1000-node plant forms to 0.9 N in ~33 000 slots. 64 sources at an
// 80 s period offer the 0.8 packets/s of the issue's 8 flows at 10 s, but
// sample the plant more widely.
func scaleDefault(shards int, seconds float64) scaleSizing {
	size := scaleSizing{Topology: "gen-plant-1000-3", Shards: shards, OpSlots: 1000, WarmOps: 10,
		Ops: opsFor(scaleOpsPerSecond, seconds), Flows: 64, Period: 80 * time.Second,
		DigestOps: opsFor(digestOpsPerSecond, seconds)}
	if shards > 1 {
		size.Ops = opsFor(shardedOpsPerSecond, seconds)
		size.RefOps = min(5, size.Ops)
	}
	return size
}

// plant is one built, formed deployment with its traffic.
type plant struct {
	sc        *scenario.Scenario
	fset      []flows.Flow
	flowBase  sim.ASN // slot the flow schedule counts from
	formSlots int64
	col       *metrics.Collector
	// Packets born in [sentFrom, sentUntil) count towards the statistics.
	sentFrom, sentUntil sim.ASN
}

// scaleWorkload is the sparse engine in steady state: op = OpSlots slots
// of a formed plant carrying periodic flows.
type scaleWorkload struct {
	size   scaleSizing
	outDir string

	p         *plant
	stats     simStats
	digestAt  string
	refDigest string // one-shard reference after RefOps ops
	refOwn    string // this workload's digest at the same point
	refOpMs   []float64
	opsRun    int
	busy0     []time.Duration
	mem0      runtime.MemStats
	mac0      macTotals
}

func newScaleWorkload(size scaleSizing, outDir string) *scaleWorkload {
	return &scaleWorkload{size: size, outDir: outDir}
}

func (w *scaleWorkload) ops() int { return w.size.Ops }

// build constructs and forms the plant and runs its warm-up ops.
func (w *scaleWorkload) build(shards int, tr *tracer) (*plant, error) {
	id := tr.begin(layerTopology, "build")
	topo, err := scenario.PickTopology(w.size.Topology)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin(layerScenario, "build")
	sc, err := scenario.Build(scenario.Params{
		Topology: topo, TopologyName: w.size.Topology, Protocol: "digs", Seed: plantSeed, Shards: shards,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin(layerSim, "form")
	formSlots, err := form(sc, joinTarget(0.9, topo.N()), 30*time.Minute)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	fset, err := flows.RandomSet(topo, w.size.Flows, w.size.Period, rand.New(rand.NewSource(plantSeed)))
	if err != nil {
		return nil, err
	}
	p := &plant{sc: sc, fset: fset, flowBase: sc.NW.ASN(), formSlots: formSlots, col: metrics.NewCollector()}
	sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) { p.col.Delivered(f.FlowID, f.Seq, asn) })
	for i := 0; i < w.size.WarmOps; i++ {
		w.advance(p)
	}
	// Packets born in the first 90 % of the timed slots count.
	p.sentFrom = sc.NW.ASN()
	p.sentUntil = p.sentFrom + sim.ASN(w.size.Ops)*w.size.OpSlots*9/10
	return p, nil
}

// advance runs one op's slots on the plant after scheduling the packets
// due in them. Scheduling per op, not up front, leaves no pending event at
// an op boundary, which is where snapshots are taken.
func (w *scaleWorkload) advance(p *plant) {
	nw := p.sc.NW
	from, to := nw.ASN(), nw.ASN()+w.size.OpSlots
	periodSlots := sim.SlotsFor(w.size.Period)
	stagger := periodSlots / sim.ASN(len(p.fset))
	for fi, f := range p.fset {
		first := p.flowBase + sim.ASN(fi)*stagger
		k := (from - first + periodSlots - 1) / periodSlots
		if from < first {
			k = 0
		}
		for at := first + k*periodSlots; at < to; at, k = at+periodSlots, k+1 {
			src, flow, seq, at := f.Source, f.ID, uint16(k), at
			nw.At(at, func() {
				nw.Wake(src)
				if p.sentFrom <= at && at < p.sentUntil {
					p.col.Sent(flow, seq, at)
				}
				_ = p.sc.MACNode(int(src)).InjectData(&sim.Frame{ // a full queue is a counted MAC drop
					Origin: src, FlowID: flow, Seq: seq, BornASN: at,
				})
			})
		}
	}
	nw.Run(w.size.OpSlots)
}

func (w *scaleWorkload) setup(tr *tracer) error {
	*w = *newScaleWorkload(w.size, w.outDir)
	runtime.GC() // the previous repetition's plant is garbage now
	p, err := w.build(w.size.Shards, tr)
	if err != nil {
		return err
	}
	w.p = p
	w.stats.FormationSlots = float64(p.formSlots)
	return nil
}

// mark records the counters the traced loop's deltas are taken from.
func (w *scaleWorkload) mark() {
	w.busy0 = w.p.sc.NW.ShardBusy()
	w.mac0 = sumMAC(w.p.sc)
	runtime.ReadMemStats(&w.mem0)
}

func (w *scaleWorkload) op(_ int, tr *tracer) (int64, error) {
	id := tr.begin(layerSim, "run")
	w.advance(w.p)
	tr.end(id)
	w.opsRun++

	// The fingerprints are taken between ops, outside the op's own time.
	switch {
	case w.opsRun == w.size.RefOps:
		w.refOwn = stateDigest(w.p.sc)
	case w.opsRun == w.size.DigestOps:
		w.digestAt = stateDigest(w.p.sc)
	}
	if w.opsRun == w.size.Ops {
		w.stats.PDR = w.p.col.PDR()
		lats := metrics.DurationsToMillis(w.p.col.Latencies())
		if len(lats) > 0 {
			w.stats.LatencyP50Slots = metrics.Quantile(lats, 0.5) / slotMs
			w.stats.LatencyP90Ms = metrics.Quantile(lats, 0.9)
		}
	}
	return w.size.OpSlots, nil
}

func (w *scaleWorkload) sim() simStats  { return w.stats }
func (w *scaleWorkload) digest() string { return w.digestAt }

// verify checks that a snapshot round trip continues exactly like the
// live plant and, on the sharded workload, that a one-shard plant set up
// the same way reaches the same state.
func (w *scaleWorkload) verify() (int, []error) {
	var errs []error
	checks := 1
	if _, err := w.roundTripCheck(nil); err != nil {
		errs = append(errs, err)
	}
	if w.size.RefOps > 0 {
		checks++
		if err := w.reference(); err != nil {
			errs = append(errs, err)
		}
	}
	return checks, errs
}

// roundTripCheck snapshots the live plant, restores the snapshot into a
// rebuilt one, advances both by one op and compares their fingerprints.
func (w *scaleWorkload) roundTripCheck(tr *tracer) (map[string]float64, error) {
	restored, m, err := roundTrip(tr, w.p.sc)
	if err != nil {
		return nil, err
	}
	twin := &plant{sc: restored, fset: w.p.fset, flowBase: w.p.flowBase, col: metrics.NewCollector()}
	w.advance(twin)
	w.advance(w.p)
	if a, b := stateDigest(twin.sc), stateDigest(w.p.sc); a != b {
		return nil, fmt.Errorf("snapshot round trip then %d slots differs from %d slots straight through", w.size.OpSlots, w.size.OpSlots)
	}
	if tr == nil {
		return m, nil
	}
	dir, err := os.MkdirTemp(w.outDir, "scale-legs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := storageLegs(tr, w.p.sc, dir)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, st)
	return m, nil
}

// reference sets a one-shard plant up the same way and demands the same
// state after RefOps ops.
func (w *scaleWorkload) reference() error {
	if w.refDigest == "" {
		ref, err := w.build(1, nil)
		if err != nil {
			return fmt.Errorf("one-shard reference: %w", err)
		}
		for i := 0; i < w.size.RefOps; i++ {
			start := time.Now()
			w.advance(ref)
			w.refOpMs = append(w.refOpMs, msSince(start))
		}
		w.refDigest = stateDigest(ref.sc)
	}
	if w.refOwn == "" {
		return fmt.Errorf("one-shard reference: fewer than %d ops ran", w.size.RefOps)
	}
	if w.refDigest != w.refOwn {
		return fmt.Errorf("state after %d ops on %d shards differs from one shard's", w.size.RefOps, w.size.Shards)
	}
	return nil
}

func (w *scaleWorkload) layers(tr *tracer, untraced, traced *loopResult) (map[string]float64, error) {
	m := map[string]float64{}
	nw := w.p.sc.NW
	slots := float64(int64(len(traced.OpMs)) * w.size.OpSlots)
	wall := time.Duration(traced.busyS() * float64(time.Second))

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	macNow := sumMAC(w.p.sc)
	busy := nw.ShardBusy()

	m["topology.build_ms"] = median(tr.millis(layerTopology, "build"))
	m["scenario.build_ms"] = median(tr.millis(layerScenario, "build"))
	m["sim.form_ms_p50"] = median(tr.millis(layerSim, "form"))
	m["sim.scale_us_per_slot"] = float64(wall.Microseconds()) / slots
	m["sim.ns_per_node_slot"] = float64(wall.Nanoseconds()) / slots / float64(nw.Topology().N())
	m["sim.mallocs_per_kslot"] = float64(mem.Mallocs-w.mem0.Mallocs) / slots * 1000
	m["sim.alloc_kb_per_kslot"] = float64(mem.TotalAlloc-w.mem0.TotalAlloc) / 1024 / slots * 1000
	macNow.minus(w.mac0).into(m, int64(slots))
	m["core.run_ms_p50"] = traced.p50()
	m["core.us_per_slot"] = m["sim.scale_us_per_slot"]
	m["core.form_slots_p50"] = float64(w.p.formSlots)

	var sum, max time.Duration
	for s := range busy {
		d := busy[s] - w.busy0[s]
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / time.Duration(len(busy))
	m["sim.shard_busy_ratio"] = float64(sum) / (float64(len(busy)) * float64(wall))
	if mean > 0 {
		m["sim.shard_imbalance"] = float64(max)/float64(mean) - 1
	}
	m["sim.barrier_us_per_slot"] = float64((wall - mean).Microseconds()) / slots
	m["share.sim"] = tr.layerShare(layerSim)

	if w.size.RefOps > 0 {
		if err := w.reference(); err != nil {
			return nil, err
		}
		// Base: the one-shard reference's op time on the same plant.
		m["sim.sharded_slowdown"] = traced.p50() / median(w.refOpMs)
	}
	legs, err := w.roundTripCheck(tr)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, legs)
	return m, nil
}

func (w *scaleWorkload) purity(tr *tracer, m map[string]float64) error {
	if s := m["share.sim"]; s < 0.95 {
		return fmt.Errorf("%s: share.sim %.3f, want >= 0.95", w.size.Topology, s)
	}
	if n := tr.countInOps(layerServer, layerGateway, layerSnapshot, layerStore); n > 0 {
		return fmt.Errorf("%s: %d HTTP/snapshot spans inside its ops, want none", w.size.Topology, n)
	}
	return nil
}

func (w *scaleWorkload) close() error { return nil }
