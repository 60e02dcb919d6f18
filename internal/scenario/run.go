package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/invariant"
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
	PowerPerPacketMW float64 `json:"power_per_packet_mw,omitempty"` // left out when nothing was delivered
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
	// Scenario is the run's scenario as the window left it, and
	// Measurement the window, whose Result the run returned; both nil
	// when the run failed.
	Scenario    *Scenario
	Measurement *Measurement
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
	// TraceFormation attaches Tracer from the first slot, so the stream
	// carries the formation too (digs-sim's flag runs; the server never
	// sets it). Formation then runs cold: setting Warm as well is an error.
	TraceFormation bool
}

// FormSpec is RunSpec's first half: it validates the spec, builds the
// canonical form's scenario, checks an inline fault plan against the
// deployment before anything runs, and forms it — warm-started from
// opts.Warm, or traced from the first slot with opts.TraceFormation — to
// the spec's join fraction within 6 min (30 min on generated plants, whose
// re-dimensioned frames form slower), then settles it for 30 s.
func FormSpec(ctx context.Context, s Spec, opts RunOpts) (*Scenario, Formation, error) {
	if err := s.Validate(); err != nil {
		return nil, Formation{}, err
	}
	if opts.TraceFormation && opts.Warm != nil {
		return nil, Formation{}, errors.New("a traced formation runs cold: drop the warm-start cache")
	}
	cs := s.Canonical()
	sc, err := Build(cs.Params())
	if err != nil {
		return nil, Formation{}, err
	}
	if cs.Plan != nil { // the built-in plans are valid on every deployment
		if err := cs.Plan.Validate(sc.Params.Topology); err != nil {
			return nil, Formation{}, err
		}
	}
	if opts.TraceFormation {
		if _, err := sc.Observe(opts.Tracer, false, nil); err != nil {
			return nil, Formation{}, err
		}
	}
	timeout := 6 * time.Minute
	if cs.IsGenerated() {
		timeout = 30 * time.Minute
	}
	formed, err := sc.Form(ctx, opts.Warm, cs.JoinFraction, timeout, 30*time.Second)
	if err != nil {
		return nil, Formation{}, err
	}
	return sc, formed, nil
}

// RunSpec executes the spec to completion and returns its canonical
// result: FormSpec, then Measure, then the identity fields. digs-server,
// digs-sim (its flags map to a spec) and digs-chaos run their jobs
// through this one function, which is what makes their results
// bit-identical.
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
	sc, formed, err := FormSpec(ctx, s, opts)
	if err != nil {
		return fail(err)
	}
	info.WarmHit = formed.Warm
	cs := s.Canonical()
	specHash, err := cs.Hash()
	if err != nil {
		return fail(err)
	}
	m, err := sc.Measure(ctx, cs, opts.Tracer)
	if err != nil {
		return fail(err)
	}
	res := &m.Result
	res.SpecHash = specHash
	res.Topology, res.Protocol, res.Seed = cs.Topology, cs.Protocol, cs.Seed
	res.Nodes = sc.Params.Topology.N()
	res.JoinedAtForm, res.FormationSlots = formed.Joined, formed.Slots
	info.Scenario, info.Measurement = sc, m
	info.Wall = time.Since(start)
	return res, info, nil
}

// Measurement is what the measured window of one run yields: the Result's
// window fields, and what the CLIs print beyond a Result.
type Measurement struct {
	// Result holds the window's fields, WindowSlots through Repairs; the
	// identity and formation fields are left for the caller.
	Result Result
	// Plan is the fault plan the window ran, nil without one.
	Plan *chaos.Plan
	// Collector is what the scenario's flow set sent and delivered.
	Collector *metrics.Collector
	// Jammers is the WiFi channel of each jammer switched on, in position
	// order.
	Jammers []int
	// Window is what the flows were driven over, the drain excluded: the
	// spec's, or a plan's horizon plus 60 s where that is longer.
	Window time.Duration
	// Invariants is the monitor's report, nil unless the spec asked for
	// the monitor.
	Invariants *invariant.Report
}

// Measure runs the measured window of a formed scenario as the spec says:
// it resolves the fault plan, attaches the observers (the tracer, the
// invariant monitor, the plan's injector; see Observe), switches on the
// jammers, drives the flows over the window and runs it out with a 15 s
// drain, reading the energy window around it. A fault plan extends the
// window to its horizon plus 60 s, deterministically, so recovery is
// always observed. Of the spec only the window fields are read — Window,
// Jammers, Invariants and the plan (PlanName or Plan), defaulted as
// Canonical does; the deployment, protocol, seed and flow set (period
// included) are the scenario's own, whatever the spec's other fields say.
//
// Cancelling ctx abandons the window at the next chunk boundary with
// ctx.Err().
func (sc *Scenario) Measure(ctx context.Context, s Spec, tracer telemetry.Tracer) (*Measurement, error) {
	cs := Spec{
		Topology: sc.Params.TopologyName, Protocol: sc.Params.Protocol, Seed: sc.Params.Seed,
		Window: s.Window, Jammers: s.Jammers,
		Invariants: s.Invariants, PlanName: s.PlanName, Plan: s.Plan,
	}.Canonical()
	nw := sc.NW
	m := &Measurement{Plan: cs.Plan}
	if cs.PlanName == "fig8" {
		m.Plan = chaos.Fig8JammerPlan(sc.Params.Topology, cs.Seed)
	}
	obs, err := sc.Observe(tracer, cs.Invariants, m.Plan)
	if err != nil {
		return nil, err
	}
	m.Jammers = sc.Jam(cs.Jammers)

	window := time.Duration(cs.Window)
	if m.Plan != nil {
		window = max(window, m.Plan.Horizon()+60*time.Second)
	}
	m.Window = window
	col := metrics.NewCollector()
	m.Collector = col
	sc.Drive(sc.FlowSet, int(window/sc.Params.Period), 0, col)

	startEnergy, _ := sc.Energy()
	startASN := nw.ASN()
	windowSlots := sim.SlotsFor(window + 15*time.Second)
	if err := runChunks(ctx, nw, windowSlots); err != nil {
		obs.Close()
		return nil, err
	}
	elapsed := sim.TimeAt(nw.ASN() - startASN)
	endEnergy, _ := sc.Energy()
	if err := obs.Close(); err != nil {
		return nil, err
	}

	m.Result = Result{
		WindowSlots:      windowSlots,
		FinalSlot:        nw.ASN(),
		Flows:            len(sc.FlowSet),
		Sent:             col.SentCount(),
		Delivered:        col.DeliveredCount(),
		PDR:              col.PDR(),
		PowerPerPacketMW: metrics.PowerPerPacketMW(endEnergy-startEnergy, elapsed, col.DeliveredCount()),
	}
	if lats := metrics.DurationsToMillis(col.Latencies()); len(lats) > 0 {
		m.Result.LatencyMedianMs = metrics.Quantile(lats, 0.5)
		m.Result.LatencyP90Ms = metrics.Quantile(lats, 0.9)
		m.Result.LatencyP99Ms = metrics.Quantile(lats, 0.99)
		m.Result.LatencyMaxMs = metrics.Max(lats)
	}
	if obs.Monitor != nil {
		rep := obs.Monitor.Report()
		m.Invariants = &rep
		m.Result.Violations, m.Result.Repairs = rep.Total, rep.Repairs
	}
	return m, nil
}
