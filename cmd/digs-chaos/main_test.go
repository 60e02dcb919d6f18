package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/campaign"
	"github.com/digs-net/digs/internal/experiments"
	"github.com/digs-net/digs/internal/scenario"
)

// TestRunPlanColdWarmFigureCache: the -json report is the same bytes
// whether formation ran, was restored from a cache this command populated,
// or was restored from a cache a figure campaign populated — the three
// caches are one format under one key, so they may share a directory (the
// README's two warm-start commands, in either order).
func TestRunPlanColdWarmFigureCache(t *testing.T) {
	report := func(cacheDir string) []byte {
		t.Helper()
		_, outs, err := runCampaign(options{
			plan: "fig8", topology: "testbed-a", protocols: []string{"orchestra"},
			duration: 30 * time.Second, period: 5 * time.Second, seed: 2, reps: 1,
			snapCache: cacheDir,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(outs[0].result)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cold := report("")
	own := t.TempDir()
	if miss := report(own); !bytes.Equal(cold, miss) {
		t.Errorf("populating the cache changed the report:\ncold: %s\nmiss: %s", cold, miss)
	}
	if warm := report(own); !bytes.Equal(cold, warm) {
		t.Errorf("warm report diverges:\ncold: %s\nwarm: %s", cold, warm)
	}

	figures := t.TempDir()
	fig := experiments.DefaultInterferenceOptions("A")
	fig.FlowSets, fig.Seed, fig.CacheDir = 1, 2, figures
	if _, err := experiments.RunInterference(fig); err != nil {
		t.Fatal(err)
	}
	// The campaign forms one network per protocol: DiGS and Orchestra.
	if entries, _ := os.ReadDir(figures); len(entries) != 2 {
		t.Fatalf("figure campaign left %d cache entries, want one per protocol", len(entries))
	}
	if warm := report(figures); !bytes.Equal(cold, warm) {
		t.Errorf("report warmed from a figure campaign's cache diverges:\ncold: %s\nwarm: %s", cold, warm)
	}
	if entries, _ := os.ReadDir(figures); len(entries) != 2 {
		t.Errorf("%d cache entries after the chaos run, want the figure's two: both commands key the Orchestra entry alike", len(entries))
	}
}

// TestRunPlanOnGeneratedPlant: a plan runs on a generated plant, which
// forms to the join target a spec naming it gets (DefaultGenJoinFraction),
// not to the testbeds' full join — a few of its nodes never join.
func TestRunPlanOnGeneratedPlant(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "crash.json")
	if err := os.WriteFile(plan, []byte(`{"name":"one-crash","seed":1,"entries":[`+
		`{"kind":"node-crash","targets":[150],"start":"5s","duration":"10s"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, outs, err := runCampaign(options{
		plan: plan, topology: "gen-plant-300-1", protocols: []string{"digs"},
		duration: 30 * time.Second, period: 5 * time.Second, seed: 1, reps: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := outs[0].result
	if res.FormedSlots <= 0 || res.Generated == 0 {
		t.Fatalf("no formation or no traffic: %+v", res)
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != "node-crash" || res.Faults[0].Node != 150 {
		t.Fatalf("want the one node-crash on node 150 reported, got %+v", res.Faults)
	}
}

// writePlan writes a plan of one node crash, 5 s into the window for 10 s,
// and returns its path.
func writePlan(t *testing.T, node int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crash.json")
	plan := fmt.Sprintf(`{"name":"one-crash","seed":1,"entries":[`+
		`{"kind":"node-crash","targets":[%d],"start":"5s","duration":"10s"}]}`, node)
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPlanOnDeploymentWithoutSourcesDrivesTraffic: random-150 suggests no
// flow sources, so a plan run there drives the random flows a spec naming
// it gets — not the empty suggested set, which generated nothing and
// reported every fault with 0/0 packets.
func TestPlanOnDeploymentWithoutSourcesDrivesTraffic(t *testing.T) {
	_, outs, err := runCampaign(options{
		plan: writePlan(t, 40), topology: "random-150", protocols: []string{"orchestra"},
		duration: 10 * time.Second, period: 5 * time.Second, seed: 1, reps: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := outs[0].result; res.Generated == 0 || len(res.Faults) != 1 || res.Faults[0].Generated == 0 {
		t.Fatalf("no traffic under the plan: %+v", res)
	}
}

// TestJobIsRunSpec: a job is the RunSpec run of the spec naming its plan,
// so its formation time and invariant totals are that run's.
func TestJobIsRunSpec(t *testing.T) {
	opts := options{
		plan: "fig8", topology: "half-testbed-a", protocols: []string{"digs", "sdn"},
		duration: 30 * time.Second, period: 5 * time.Second, seed: 3, reps: 1, invariants: true,
	}
	_, outs, err := runCampaign(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, proto := range opts.protocols {
		res, _, err := scenario.RunSpec(context.Background(), scenario.Spec{
			Topology: opts.topology, Protocol: proto, Seed: opts.seed, PlanName: opts.plan,
			Period: scenario.Duration(opts.period), Window: scenario.Duration(opts.duration),
			Invariants: true,
		}, scenario.RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		job := outs[i].result
		if job.Invariants == nil {
			t.Fatalf("%s: no invariant report", proto)
		}
		if job.FormedSlots != res.FormationSlots || job.Invariants.Total != res.Violations ||
			job.Invariants.Repairs != res.Repairs {
			t.Errorf("%s: job formed in %d slots with %d violations and %d repairs, RunSpec %d, %d, %d",
				proto, job.FormedSlots, job.Invariants.Total, job.Invariants.Repairs,
				res.FormationSlots, res.Violations, res.Repairs)
		}
		if job.Generated != res.Sent {
			t.Errorf("%s: job generated %d packets, RunSpec sent %d", proto, job.Generated, res.Sent)
		}
	}
}

// TestTraceSameAtAnyParallelism: digs-chaos -reps 2 -trace writes the same
// merged trace at -parallel 1 and -parallel 4 — every job records into a
// part of its own and the parts merge in job order.
func TestTraceSameAtAnyParallelism(t *testing.T) {
	t.Cleanup(func() { campaign.SetDefaultWorkers(0) })
	dir, plan := t.TempDir(), writePlan(t, 5)
	trace := func(parallel string) []byte {
		t.Helper()
		path := filepath.Join(dir, "parallel-"+parallel+".jsonl")
		err := run([]string{"-plan", plan, "-topology", "half-testbed-a", "-protocols", "digs,orchestra",
			"-duration", "10s", "-reps", "2", "-parallel", parallel, "-json", "-trace", path})
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one, four := trace("1"), trace("4")
	if !bytes.Contains(one, []byte(`"job":3`)) {
		t.Fatalf("trace at -parallel 1 has no events of the fourth job (%d bytes)", len(one))
	}
	if !bytes.Equal(one, four) {
		t.Fatalf("merged traces differ: %d bytes at -parallel 1, %d at -parallel 4", len(one), len(four))
	}
}
