package invariant_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// driftOutcome is one job's result: the job-stamped trace plus the facts
// the assertions need.
type driftOutcome struct {
	trace      []byte
	repairs    int
	desyncs    int
	rejoined   bool
	violations int
}

// runDriftRejoin converges a DiGS network, drifts one node's clock fully
// out of the guard time, lets the watchdog detect the desync and reboot it
// (with backoff while the drift persists), then restores the clock and
// checks the node rejoins. Everything — drift, polling, healing — lives on
// deterministic hashes and the simulator event queue, so the same seed
// must produce the same trace bytes regardless of campaign scheduling.
func runDriftRejoin(t *testing.T, job int, seed int64) (driftOutcome, error) {
	topo := topology.HalfTestbedA()
	nw := sim.NewNetwork(topo, seed)
	net, err := core.Build(nw, core.DefaultConfig(topo.NumAPs), mac.DefaultConfig(), seed)
	if err != nil {
		return driftOutcome{}, err
	}
	if _, done := nw.RunUntil(sim.SlotsFor(240*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Errorf("job %d: network did not converge", job)
		return driftOutcome{}, nil
	}

	var buf bytes.Buffer
	jsonl := telemetry.WithJob(telemetry.NewJSONL(&buf), job)
	// The shape matches production use: the monitor emits into the chain
	// that excludes itself.
	mon := invariant.New(invariant.Config{Emit: jsonl, Heal: net.Healer(nw)})
	net.SetTracer(telemetry.Multi(jsonl, mon))
	invariant.Attach(nw, mon, net.Prober(nw))

	victim := topo.SuggestedSources[0]
	nw.SetClockDrift(victim, 1.0, seed*7+3)
	nw.Run(sim.SlotsFor(60 * time.Second))
	nw.SetClockDrift(victim, 0, 0)
	nw.Run(sim.SlotsFor(120 * time.Second))

	if err := jsonl.Flush(); err != nil {
		return driftOutcome{}, err
	}
	rep := mon.Report()
	out := driftOutcome{
		trace:      append([]byte(nil), buf.Bytes()...),
		repairs:    rep.Repairs,
		rejoined:   net.JoinedCount() == topo.N(),
		violations: rep.Total,
	}
	for _, cs := range rep.ByCode {
		if cs.Code == invariant.CodeDesync {
			out.desyncs = cs.Count
		}
	}
	return out, nil
}

// TestWatchdogRejoinDeterministicAcrossWorkers is the acceptance check for
// the self-healing path: the watchdog must recover a clock-drifted node,
// and the merged campaign trace — violations, repairs and all — must be
// byte-identical whether the campaign runs sequentially or on a pool.
func TestWatchdogRejoinDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaign in -short mode")
	}
	const jobs = 3
	runCampaign := func(workers int) []byte {
		outs, err := campaign.Map(campaign.New(workers), jobs, func(i int) (driftOutcome, error) {
			return runDriftRejoin(t, i, int64(100+i))
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		parts := make([][]byte, len(outs))
		for i, o := range outs {
			if o.desyncs == 0 {
				t.Errorf("workers=%d job %d: drifted node never flagged desynced", workers, i)
			}
			if o.repairs == 0 {
				t.Errorf("workers=%d job %d: watchdog never rebooted the node", workers, i)
			}
			if !o.rejoined {
				t.Errorf("workers=%d job %d: node did not rejoin after the drift cleared", workers, i)
			}
			parts[i] = o.trace
		}
		var merged bytes.Buffer
		if err := telemetry.MergeJSONL(&merged, parts...); err != nil {
			t.Fatalf("workers=%d merge: %v", workers, err)
		}
		return merged.Bytes()
	}

	seq := runCampaign(1)
	par := runCampaign(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("merged campaign traces differ between 1 and 4 workers (%d vs %d bytes)",
			len(seq), len(par))
	}
}
