package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// Smoke sizes: seconds, not minutes, and every code path of the full run.
var (
	paperSmoke  = paperSizing{Topology: "testbed-a", WarmRounds: 1, Ops: 2, LegSeeds: 1}
	scaleSmoke  = scaleSizing{Topology: "gen-plant-200-3", Shards: 1, OpSlots: 500, WarmOps: 2, Ops: 20, Flows: 16, Period: 20 * time.Second, DigestOps: 10}
	shardSmoke  = scaleSizing{Topology: "gen-plant-200-3", Shards: 2, OpSlots: 500, WarmOps: 2, Ops: 20, Flows: 16, Period: 20 * time.Second, DigestOps: 10, RefOps: 3}
	serverSmoke = serviceSizing{Topology: "half-testbed-a", WarmSessions: 1, Ops: 5, Reads: 2, CompareEvery: 2, LegSessions: 2}
)

func smokeWorkloads(dir string) map[string]workload {
	const seed = 15
	return map[string]workload{
		wlPaperRound:   newPaperRound(seed, paperSmoke, dir),
		wlScale1k:      newScaleWorkload(scaleSmoke, dir),
		wlScaleSharded: newScaleWorkload(shardSmoke, dir),
		wlService:      newServiceSession(seed, serverSmoke, dir),
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// demands zero failed ops, every end-to-end metric non-zero, equal digests
// on the two scale workloads, and that each per-layer metric of the table
// is measured by some workload and no workload measures one outside it.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := runConfig{Seed: 15, OutDir: dir}
	digests := map[string]string{}
	purityShare := regexp.MustCompile(`^purity: .*share\.`)
	measured := map[string]bool{}
	for name, w := range smokeWorkloads(dir) {
		info, out, err := runUntraced(name, w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Correct || out.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", name, out.Failed, out.Attempted, info.Errors)
		}
		for _, d := range endToEnd {
			if out.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, d.Name, out.Metrics[d.Name].Value)
			}
		}
		digests[name] = info.Digest

		info, out, err = runTraced(name, w, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		// The purity shares are sized for the full workloads; everything
		// else must hold at smoke size too.
		for _, e := range info.Errors {
			if !purityShare.MatchString(e) {
				t.Errorf("%s traced: %s", name, e)
			}
		}
		if len(out.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", name, len(out.Metrics), len(perLayer))
		}
		for _, k := range info.Measured {
			measured[k] = true
		}
		if err := w.close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
	}
	if digests[wlScale1k] == "" || digests[wlScale1k] != digests[wlScaleSharded] {
		t.Errorf("scale digests differ: %q and %q", digests[wlScale1k], digests[wlScaleSharded])
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
		delete(measured, d.Name)
	}
	for k := range measured {
		t.Errorf("a workload measures %s, which the per-layer table does not list", k)
	}
	if left, _ := os.ReadDir(dir); len(left) != 4 { // the four trace files
		t.Errorf("%d entries left under the output directory, want only the 4 traces", len(left))
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadDef   `json:"workloads"`
	EndToEnd   []benchmarkLine `json:"end_to_end"`
	PerLayer   []benchmarkLine `json:"per_layer"`
}

type benchmarkLine struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesHarness fails when BENCHMARK.json and the
// harness's tables of names drift apart, in either direction.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Workloads, workloads) {
		t.Errorf("workloads differ:\n file   %+v\n tables %+v", bm.Workloads, workloads)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range bm.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []benchmarkLine, want []metricDef, bounded bool) {
		var lines []metricDef
		for _, l := range got {
			d := metricDef{Name: l.Name, Unit: l.Unit, Better: l.Better}
			if (l.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", kind, l.Name, l.Bound != nil, bounded)
			}
			if l.Bound != nil {
				d.Bound = *l.Bound
				if d.Bound <= 0 || d.Bound > 0.25 {
					t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, l.Name, d.Bound)
				}
			}
			if !name.MatchString(l.Name) || !unit.MatchString(l.Unit) || seen[l.Name] {
				t.Errorf("%s %q (%q): bad or repeated name, or bad unit", kind, l.Name, l.Unit)
			}
			if l.Better != "lower" && l.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, l.Name, l.Better)
			}
			seen[l.Name] = true
			lines = append(lines, d)
		}
		byName := func(s []metricDef) []metricDef {
			s = append([]metricDef(nil), s...)
			sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
			return s
		}
		if !reflect.DeepEqual(byName(lines), byName(want)) {
			t.Errorf("%s metrics differ:\n file   %+v\n tables %+v", kind, byName(lines), byName(want))
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
	if len(bm.PerLayer) > 128 || len(bm.EndToEnd) > 16 || len(bm.Workloads) < 2 || len(bm.Workloads) > 8 {
		t.Errorf("counts outside the contract: %d workloads, %d end-to-end, %d per-layer", len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer))
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bm.RunSeconds)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", bm.Paths)
	}
}
