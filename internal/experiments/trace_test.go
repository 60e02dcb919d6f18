package experiments

import (
	"bytes"
	"math"
	"testing"

	"github.com/digs-net/digs/internal/telemetry"
)

// runTracedFig4 runs the reduced Figure 4/5 campaign with per-job JSONL
// sinks and returns the results plus the merged trace bytes.
func runTracedFig4(t *testing.T, parallel int) ([]RepairResult, []byte) {
	t.Helper()
	opts := DefaultRepairOptions()
	opts.JammerCounts = []int{1, 2}
	opts.Repetitions = 1
	opts.Seed = 42
	setWorkers(t, parallel)

	parts := make([]bytes.Buffer, len(opts.JammerCounts)*opts.Repetitions)
	opts.Tracer = func(job int) telemetry.Tracer {
		return telemetry.WithJob(telemetry.NewJSONL(&parts[job]), job)
	}
	res, err := RunFig4And5(opts)
	if err != nil {
		t.Fatalf("parallel=%d: %v", parallel, err)
	}
	raw := make([][]byte, len(parts))
	for i := range parts {
		raw[i] = parts[i].Bytes()
	}
	var merged bytes.Buffer
	if err := telemetry.MergeJSONL(&merged, raw...); err != nil {
		t.Fatalf("parallel=%d: merge: %v", parallel, err)
	}
	return res, merged.Bytes()
}

// TestTraceDeterministicAcrossWorkers is the telemetry determinism
// regression: the merged packet-lifecycle trace of a campaign must be
// byte-identical whether the jobs ran sequentially or on a worker pool.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four traced repair campaigns")
	}
	seqRes, seqTrace := runTracedFig4(t, 1)
	parRes, parTrace := runTracedFig4(t, 4)
	if !bytes.Equal(seqTrace, parTrace) {
		t.Fatalf("merged traces differ between sequential (%d bytes) and parallel (%d bytes)",
			len(seqTrace), len(parTrace))
	}
	if len(seqRes) != len(parRes) {
		t.Fatalf("result counts differ: %d vs %d", len(seqRes), len(parRes))
	}

	// Acceptance criterion: the event stream alone must reproduce the
	// metrics collector's delivery accounting. Replay the merged trace
	// through the aggregator and compare each job's per-flow PDR against
	// the RepairResult the collector computed.
	agg := telemetry.NewAggregate(151)
	if err := telemetry.Scan(bytes.NewReader(seqTrace), func(ev telemetry.Event) error {
		agg.Record(ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if agg.Jobs() != len(seqRes) {
		t.Fatalf("trace contains %d jobs, want %d", agg.Jobs(), len(seqRes))
	}
	for job, res := range seqRes {
		for i, wantPDR := range res.FlowPDRs {
			flow := uint16(i + 1) // flows.FixedSet numbers flows from 1
			gotPDR := agg.FlowPDR(int32(job), flow)
			if math.Abs(gotPDR-wantPDR) > 1e-12 {
				t.Errorf("job %d flow %d: trace PDR %.6f != collector PDR %.6f",
					job, flow, gotPDR, wantPDR)
			}
		}
	}
}
