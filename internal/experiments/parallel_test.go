package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/digs-net/digs/internal/campaign"
)

// setWorkers bounds the campaign pool every runner uses, as the -parallel
// flag does, and restores the process default when the test ends.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	campaign.SetDefaultWorkers(n)
	t.Cleanup(func() { campaign.SetDefaultWorkers(0) })
}

// TestFig4And5ParallelMatchesSequential is the campaign-runner determinism
// regression: the same Testbed A repair campaign, run once sequentially and
// once on a four-worker pool, must produce byte-identical metric series.
// Each job derives its RNG seed from the job index alone, so worker
// scheduling cannot leak into the results.
func TestFig4And5ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four repair campaigns")
	}
	run := func(parallel int) []RepairResult {
		opts := DefaultRepairOptions()
		opts.JammerCounts = []int{1, 2}
		opts.Repetitions = 1
		opts.Seed = 42
		setWorkers(t, parallel)
		res, err := RunFig4And5(opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel campaign diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	// Belt and braces: the printed metric series must match byte for byte.
	if s, p := fmt.Sprintf("%#v", seq), fmt.Sprintf("%#v", par); s != p {
		t.Fatalf("formatted metric series differ:\nseq: %s\npar: %s", s, p)
	}
}

// TestInterferenceRunTwiceIdentical regresses the Orchestra/RPL map-order
// bug: parent reselection used to break cost ties by map iteration order,
// so two identically-seeded runs in the same process could diverge. Both
// protocol campaigns must reproduce themselves exactly.
func TestInterferenceRunTwiceIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four interference campaigns")
	}
	run := func() *InterferenceResult {
		opts := DefaultInterferenceOptions("A")
		opts.FlowSets = 3
		opts.Seed = 1
		setWorkers(t, 1)
		res, err := RunInterference(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.DiGS, b.DiGS) {
		t.Errorf("DiGS campaign not reproducible:\n  a=%+v\n  b=%+v", a.DiGS, b.DiGS)
	}
	if !reflect.DeepEqual(a.Orchestra, b.Orchestra) {
		t.Errorf("Orchestra campaign not reproducible:\n  a=%+v\n  b=%+v", a.Orchestra, b.Orchestra)
	}
}

// TestFig11ParallelMatchesSequential covers the repetition-merge path:
// per-repetition partial results must be concatenated in repetition order
// for both protocols regardless of which worker finished first.
func TestFig11ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four failure campaigns")
	}
	run := func(parallel int) [2]*FailureResult {
		opts := DefaultFailureOptions()
		opts.Repetitions = 2
		opts.Victims = 2
		opts.Seed = 42
		setWorkers(t, parallel)
		digs, orch, err := RunFig11(opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return [2]*FailureResult{digs, orch}
	}
	seq := run(1)
	par := run(4)
	for i, proto := range []Protocol{DiGS, Orchestra} {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("parallel %v failure campaign diverged from sequential:\nseq: %+v\npar: %+v", proto, seq[i], par[i])
		}
	}
}
