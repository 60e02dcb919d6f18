package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/experiments"
)

// TestRunPlanColdWarmFigureCache: the -json report is the same bytes
// whether formation ran, was restored from a cache this command populated,
// or was restored from a cache a figure campaign populated — the three
// caches are one format under one key, so they may share a directory (the
// README's two warm-start commands, in either order).
func TestRunPlanColdWarmFigureCache(t *testing.T) {
	report := func(cacheDir string) []byte {
		t.Helper()
		outs, err := runCampaign(options{
			plan: "fig8", topology: "testbed-a", protocols: []string{"orchestra"},
			duration: 30 * time.Second, period: 5 * time.Second, seed: 2, reps: 1,
			snapCache: cacheDir,
		})
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
	outs, err := runCampaign(options{
		plan: plan, topology: "gen-plant-300-1", protocols: []string{"digs"},
		duration: 30 * time.Second, period: 5 * time.Second, seed: 1, reps: 1,
	})
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
