package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/interference"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// Result is the canonical outcome of one executed Spec. Its JSON encoding
// (Encode) is deterministic — fixed field order, shortest float
// formatting — so two bit-identical runs produce byte-identical results,
// which is what lets the server content-address results and lets tests
// assert server-vs-CLI and warm-vs-cold identity by comparing bytes.
//
// Execution-side facts that do not describe the simulation — whether the
// formation came from the warm pool, wall-clock time — deliberately live
// in RunInfo instead: a warm-started run must encode identically to a
// cold one.
type Result struct {
	SpecHash         string  `json:"spec_hash"`
	Topology         string  `json:"topology"`
	Protocol         string  `json:"protocol"`
	Seed             int64   `json:"seed"`
	Nodes            int     `json:"nodes"`
	JoinedAtForm     int     `json:"joined_at_form"`
	FormationSlots   int64   `json:"formation_slots"`
	WindowSlots      int64   `json:"window_slots"`
	FinalSlot        int64   `json:"final_slot"`
	Flows            int     `json:"flows"`
	Sent             int     `json:"sent"`
	Delivered        int     `json:"delivered"`
	PDR              float64 `json:"pdr"`
	LatencyMedianMs  float64 `json:"latency_median_ms"`
	LatencyP90Ms     float64 `json:"latency_p90_ms"`
	LatencyP99Ms     float64 `json:"latency_p99_ms"`
	LatencyMaxMs     float64 `json:"latency_max_ms"`
	PowerPerPacketMW float64 `json:"power_per_packet_mw"`
	Violations       int     `json:"violations"`
	Repairs          int     `json:"repairs"`
}

// Encode returns the canonical JSON encoding of the result.
func (r *Result) Encode() ([]byte, error) { return json.Marshal(r) }

// HashResult returns the hex SHA-256 of the canonical result encoding —
// the value the end-to-end determinism checks compare.
func (r *Result) HashResult() (string, error) {
	b, err := r.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RunInfo reports execution-side facts about one RunSpec call, kept out
// of the canonical Result on purpose.
type RunInfo struct {
	// WarmHit reports that the formation phase was restored from the
	// warm-start cache instead of simulated.
	WarmHit bool
	// Wall is the call's wall-clock duration.
	Wall time.Duration
}

// RunOpts parameterises RunSpec.
type RunOpts struct {
	// Tracer observes the measurement window's telemetry (nil = off).
	// It is attached after formation/warm-start so cold and warm runs
	// emit byte-identical streams.
	Tracer telemetry.Tracer
	// Warm, when set, warm-starts the formation phase from this cache
	// (storing it on a miss). Results are bit-identical either way.
	Warm *snapshot.Cache
}

// formationLabel names the warm-pool phase for a formation target.
func formationLabel(frac float64) string {
	if frac >= 1 {
		return "formed+30s"
	}
	return fmt.Sprintf("formed%d+30s", int(math.Round(frac*100)))
}

// runChunks advances the network in chunks, checking for cancellation
// between them. The simulator has no preemption points, so cancellation
// latency is one chunk (50 simulated seconds), not one slot.
func runChunks(ctx context.Context, nw *sim.Network, slots int64) error {
	const chunk = 5000
	for slots > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := int64(chunk)
		if slots < n {
			n = slots
		}
		nw.Run(n)
		slots -= n
	}
	return ctx.Err()
}

// RunSpec executes the spec to completion and returns its canonical
// result: build (or warm-start) the scenario, form the network, attach
// observers, apply interference and fault plans, drive the flows through
// the measurement window and fold the collector into a Result. Both
// digs-server and digs-sim -spec run submissions through this one
// function, which is what makes their results bit-identical.
//
// Cancelling ctx abandons the run at the next chunk boundary with
// ctx.Err(); partial results are never returned.
func RunSpec(ctx context.Context, s Spec, opts RunOpts) (*Result, RunInfo, error) {
	start := time.Now()
	info := RunInfo{}
	fail := func(err error) (*Result, RunInfo, error) {
		info.Wall = time.Since(start)
		return nil, info, err
	}
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	cs := s.Canonical()
	specHash, err := cs.Hash()
	if err != nil {
		return fail(err)
	}
	p := cs.Params()
	p.Shards = s.Shards
	sc, err := Build(p)
	if err != nil {
		return fail(err)
	}
	topo := sc.Params.Topology
	nw := sc.NW
	period := time.Duration(cs.Period)

	// Formation: run until the join target is met (plus a 30 s settling
	// margin), or restore exactly that state from the warm pool.
	target := int(math.Ceil(cs.JoinFraction * float64(topo.N())))
	if target > topo.N() {
		target = topo.N()
	}
	if target < 1 {
		target = 1
	}
	formTimeout := 6 * time.Minute
	if cs.IsGenerated() {
		// Re-dimensioned frames beyond the paper envelope form slower;
		// match core.ScaledConfig's widened timeouts.
		formTimeout = 30 * time.Minute
	}
	form := func() (map[string]string, error) {
		maxSlots := sim.SlotsFor(formTimeout)
		var ran int64
		formed := false
		for ran < maxSlots && !formed {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			budget := maxSlots - ran
			if budget > 5000 {
				budget = 5000
			}
			n, ok := nw.RunUntil(budget, func() bool { return sc.Joined() >= target })
			ran += n
			formed = ok
		}
		if !formed {
			return nil, fmt.Errorf("only %d/%d nodes joined during formation (target %d)",
				sc.Joined(), topo.N(), target)
		}
		nw.Run(sim.SlotsFor(30 * time.Second))
		return map[string]string{
			"formed_slots":   strconv.FormatInt(ran, 10),
			"joined_at_form": strconv.Itoa(sc.Joined()),
		}, nil
	}
	var extra map[string]string
	if opts.Warm != nil {
		meta, hit, err := sc.WarmStart(opts.Warm, formationLabel(cs.JoinFraction), form)
		if err != nil {
			return fail(err)
		}
		info.WarmHit = hit
		extra = meta.Extra
	} else {
		if extra, err = form(); err != nil {
			return fail(err)
		}
	}
	formSlots, err := strconv.ParseInt(extra["formed_slots"], 10, 64)
	if err != nil {
		return fail(fmt.Errorf("formation metadata formed_slots: %w", err))
	}
	joinedAtForm, err := strconv.Atoi(extra["joined_at_form"])
	if err != nil {
		return fail(fmt.Errorf("formation metadata joined_at_form: %w", err))
	}

	// Observers attach only now, so a warm-started run emits the same
	// telemetry stream as a cold one (formation events are by design not
	// part of the measurement).
	var chain telemetry.Tracer = opts.Tracer
	var mon *invariant.Monitor
	if cs.Invariants {
		mon = invariant.New(invariant.Config{Emit: opts.Tracer, Heal: sc.Healer(nw)})
		chain = telemetry.Multi(opts.Tracer, mon)
		invariant.Attach(nw, mon, sc.Prober(nw), 0)
	}
	var plan *chaos.Plan
	switch {
	case cs.PlanName == "fig8":
		plan = chaos.Fig8JammerPlan(topo, cs.Seed)
	case cs.Plan != nil:
		plan = cs.Plan
	}
	stackTracer := chain
	if plan != nil {
		live := func() int {
			n := 0
			for i := 1; i <= topo.N(); i++ {
				if !nw.Failed(topology.NodeID(i)) {
					n++
				}
			}
			return n
		}
		inj, err := chaos.Apply(nw, plan, chain, chaos.Hooks{
			Converged: func() bool { return sc.Joined() >= live() },
			Reboot: func(id topology.NodeID, asn sim.ASN, lose bool) {
				sc.MACNode(int(id)).Reboot(asn, lose)
			},
		})
		if err != nil {
			return fail(err)
		}
		stackTracer = telemetry.Multi(chain, inj)
	}
	if stackTracer != nil {
		sc.SetTracer(stackTracer)
	}
	if chain != nil {
		telemetry.AttachSim(nw, chain)
	}

	// Interference: WiFi jammers at the deployment's suggested spots.
	for j := 0; j < cs.Jammers && j < len(topo.SuggestedJammers); j++ {
		wifiCh := []int{1, 6, 11}[j%3]
		nw.AddInterferer(&interference.Window{
			Source:   interference.NewWiFiJammer(topo, topo.SuggestedJammers[j], wifiCh, cs.Seed+int64(j)),
			StartASN: nw.ASN(),
		})
	}

	// Flows. A fault plan extends the effective window past its horizon
	// deterministically, so recovery is always observed.
	window := time.Duration(cs.Window)
	if plan != nil {
		if h := plan.Horizon() + 60*time.Second; h > window {
			window = h
		}
	}
	var fset []flows.Flow
	if cs.Flows <= 0 && len(topo.SuggestedSources) > 0 {
		fset = flows.FixedSet(topo.SuggestedSources, period)
	} else {
		n := cs.Flows
		if n <= 0 {
			n = 8
		}
		rng := rand.New(rand.NewSource(cs.Seed))
		fset, err = flows.RandomSet(topo, n, period, rng)
		if err != nil {
			return fail(err)
		}
	}
	col := metrics.NewCollector()
	sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
	packets := int(window / period)
	flows.Schedule(nw, fset, packets, func(f flows.Flow, seq uint16, asn sim.ASN) {
		if nw.Failed(f.Source) {
			// A crashed source generates nothing (matters only under
			// fault plans; Failed is always false otherwise).
			return
		}
		col.Sent(f.ID, seq, asn)
		_ = sc.MACNode(int(f.Source)).InjectData(&sim.Frame{
			Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: asn,
		})
	})

	startEnergy := totalEnergy(sc, topo.N())
	startASN := nw.ASN()
	windowSlots := sim.SlotsFor(window + 15*time.Second)
	if err := runChunks(ctx, nw, windowSlots); err != nil {
		sc.SetTracer(nil)
		telemetry.AttachSim(nw, nil)
		return fail(err)
	}
	elapsed := sim.TimeAt(nw.ASN() - startASN)
	energy := totalEnergy(sc, topo.N()) - startEnergy

	sc.SetTracer(nil)
	telemetry.AttachSim(nw, nil)
	if chain != nil {
		if err := chain.Flush(); err != nil {
			return fail(err)
		}
	}

	res := &Result{
		SpecHash:         specHash,
		Topology:         cs.Topology,
		Protocol:         cs.Protocol,
		Seed:             cs.Seed,
		Nodes:            topo.N(),
		JoinedAtForm:     joinedAtForm,
		FormationSlots:   formSlots,
		WindowSlots:      windowSlots,
		FinalSlot:        nw.ASN(),
		Flows:            len(fset),
		Sent:             col.SentCount(),
		Delivered:        col.DeliveredCount(),
		PDR:              col.PDR(),
		PowerPerPacketMW: metrics.PowerPerPacketMW(energy, elapsed, col.DeliveredCount()),
	}
	if lats := metrics.DurationsToMillis(col.Latencies()); len(lats) > 0 {
		res.LatencyMedianMs = metrics.Quantile(lats, 0.5)
		res.LatencyP90Ms = metrics.Quantile(lats, 0.9)
		res.LatencyP99Ms = metrics.Quantile(lats, 0.99)
		res.LatencyMaxMs = metrics.Max(lats)
	}
	if mon != nil {
		rep := mon.Report()
		res.Violations = rep.Total
		res.Repairs = rep.Repairs
	}
	info.Wall = time.Since(start)
	return res, info, nil
}

// totalEnergy sums the MAC-layer energy model across all nodes, napping
// ones settled up to the current slot first.
func totalEnergy(sc *Scenario, n int) float64 {
	sc.NW.SettleNaps()
	total := 0.0
	for i := 1; i <= n; i++ {
		total += sc.MACNode(i).Stats().EnergyJoules
	}
	return total
}
