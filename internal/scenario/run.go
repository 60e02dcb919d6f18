package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
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
	sc, err := Build(cs.Params())
	if err != nil {
		return fail(err)
	}
	topo, nw := sc.Params.Topology, sc.NW
	period := time.Duration(cs.Period)

	joinFraction, formTimeout := cs.FormTarget()
	formed, err := sc.Form(ctx, opts.Warm, joinFraction, formTimeout, 30*time.Second)
	if err != nil {
		return fail(err)
	}
	info.WarmHit = formed.Warm

	var plan *chaos.Plan
	switch {
	case cs.PlanName == "fig8":
		plan = chaos.Fig8JammerPlan(topo, cs.Seed)
	case cs.Plan != nil:
		plan = cs.Plan
	}
	obs, err := sc.Observe(opts.Tracer, cs.Invariants, plan)
	if err != nil {
		return fail(err)
	}
	sc.Jam(cs.Jammers)

	// A fault plan extends the effective window past its horizon
	// deterministically, so recovery is always observed.
	window := time.Duration(cs.Window)
	if plan != nil {
		window = max(window, plan.Horizon()+60*time.Second)
	}
	fset, err := sc.Flows(cs.Flows, period)
	if err != nil {
		return fail(err)
	}
	col := metrics.NewCollector()
	sc.Drive(fset, int(window/period), 0, col)

	startEnergy, _ := sc.Energy()
	startASN := nw.ASN()
	windowSlots := sim.SlotsFor(window + 15*time.Second)
	if err := runChunks(ctx, nw, windowSlots); err != nil {
		obs.Close()
		return fail(err)
	}
	elapsed := sim.TimeAt(nw.ASN() - startASN)
	endEnergy, _ := sc.Energy()
	if err := obs.Close(); err != nil {
		return fail(err)
	}

	res := &Result{
		SpecHash:         specHash,
		Topology:         cs.Topology,
		Protocol:         cs.Protocol,
		Seed:             cs.Seed,
		Nodes:            topo.N(),
		JoinedAtForm:     formed.Joined,
		FormationSlots:   formed.Slots,
		WindowSlots:      windowSlots,
		FinalSlot:        nw.ASN(),
		Flows:            len(fset),
		Sent:             col.SentCount(),
		Delivered:        col.DeliveredCount(),
		PDR:              col.PDR(),
		PowerPerPacketMW: metrics.PowerPerPacketMW(endEnergy-startEnergy, elapsed, col.DeliveredCount()),
	}
	if lats := metrics.DurationsToMillis(col.Latencies()); len(lats) > 0 {
		res.LatencyMedianMs = metrics.Quantile(lats, 0.5)
		res.LatencyP90Ms = metrics.Quantile(lats, 0.9)
		res.LatencyP99Ms = metrics.Quantile(lats, 0.99)
		res.LatencyMaxMs = metrics.Max(lats)
	}
	if obs.Monitor != nil {
		rep := obs.Monitor.Report()
		res.Violations = rep.Total
		res.Repairs = rep.Repairs
	}
	info.Wall = time.Since(start)
	return res, info, nil
}
