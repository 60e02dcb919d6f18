package scenario

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/telemetry"
)

// sweepFindingsFile lists every invariant finding the fault-free sweep
// makes, one "stack topology seed code node" line each, sorted.
const sweepFindingsFile = "testdata/fault_free_findings.txt"

// violationSink keeps the (code, node) of every violation event.
type violationSink struct{ found map[string]bool }

func (v *violationSink) Record(ev telemetry.Event) {
	if ev.Type == telemetry.EvViolation {
		v.found[fmt.Sprintf("%s %d", invariant.Code(ev.Code), ev.Node)] = true
	}
}

func (v *violationSink) Flush() error { return nil }

// TestFaultFreeSweep is the fault-free invariant sweep as a ratchet: every
// stack on half of Testbed A, seeds 1-20, and on Testbed A, seeds 1-5, runs
// a minute with the invariant monitor on and no fault injected. The set of
// (stack, topology, seed, code, node) findings must equal the checked-in
// list exactly: a new finding fails, and so does a listed one that no
// longer occurs, so the list only shrinks on purpose — edit it in the same
// change that removes a finding.
func TestFaultFreeSweep(t *testing.T) {
	type run struct {
		topo string
		seed int64
	}
	var runs []run
	for seed := int64(1); seed <= 20; seed++ {
		runs = append(runs, run{"half-testbed-a", seed})
	}
	for seed := int64(1); seed <= 5; seed++ {
		runs = append(runs, run{"testbed-a", seed})
	}
	stacks := RegisteredStacks()
	lines, err := campaign.Map(campaign.New(0), len(stacks)*len(runs), func(i int) ([]string, error) {
		proto, r := stacks[i%len(stacks)], runs[i/len(stacks)]
		sink := &violationSink{found: map[string]bool{}}
		spec := Spec{Topology: r.topo, Protocol: proto, Seed: r.seed,
			Window: Duration(60 * time.Second), Invariants: true}
		if _, _, err := RunSpec(context.Background(), spec, RunOpts{Tracer: sink}); err != nil {
			return nil, fmt.Errorf("%s %s seed %d: %w", proto, r.topo, r.seed, err)
		}
		var out []string
		for f := range sink.found {
			out = append(out, fmt.Sprintf("%s %s %d %s", proto, r.topo, r.seed, f))
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Concat(lines...)
	slices.Sort(got)

	raw, err := os.ReadFile(sweepFindingsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	for _, f := range got {
		if !slices.Contains(want, f) {
			t.Errorf("new finding: %s", f)
		}
	}
	for _, f := range want {
		if !slices.Contains(got, f) {
			t.Errorf("listed finding no longer occurs (remove it from %s): %s", sweepFindingsFile, f)
		}
	}
}
