package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/server/servertest"
)

// rowsAfter returns the lines of out that follow the first line starting
// with prefix, up to the next blank line.
func rowsAfter(t *testing.T, out, prefix string) string {
	t.Helper()
	var rows []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case in && line == "":
			return strings.Join(rows, "\n")
		case in:
			rows = append(rows, line)
		case strings.HasPrefix(line, prefix):
			in = true
		}
	}
	if !in {
		t.Fatalf("no %q line in:\n%s", prefix, out)
	}
	return strings.Join(rows, "\n")
}

// TestResumePlanIsTheChaosWindow: resuming a formation-cache entry into a
// plan runs the measured window of the digs-chaos job that warm-started
// from that entry, so digs-snap prints the recovery rows digs-chaos prints
// for the same topology, protocol and seed.
func TestResumePlanIsTheChaosWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs digs-chaos and digs-snap")
	}
	chaosBin, snapBin := servertest.Build(t, "digs-chaos"), servertest.Build(t, "digs-snap")
	cache := t.TempDir()
	run := func(bin string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
		}
		return string(out)
	}
	chaosArgs := []string{"-plan", "fig8", "-topology", "half-testbed-a", "-protocols", "orchestra",
		"-seed", "2", "-snap-cache", cache, "-parallel", "1"}
	run(chaosBin, chaosArgs...) // forms and stores the entry
	want := rowsAfter(t, run(chaosBin, chaosArgs...), "network formed in ")

	entries, err := filepath.Glob(filepath.Join(cache, "*.snap"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache holds %v (%v), want one formation entry", entries, err)
	}
	got := rowsAfter(t, run(snapBin, "resume", "-snap", entries[0], "-plan", "fig8")+"\n", "resumed ")
	if got != want {
		t.Errorf("digs-snap resume -plan prints\n%s\ndigs-chaos printed\n%s", got, want)
	}
	if !strings.Contains(want, "jam-wifi") || strings.Contains(want, "totals: generated 0,") {
		t.Errorf("the rows show no jammer or no traffic:\n%s", want)
	}
}

// TestResumePlanDrivesTrafficWithoutSources: random-150 suggests no flow
// sources, so a resumed plan drives the random flows a spec naming the
// deployment gets — not the empty suggested set, which generated nothing.
func TestResumePlanDrivesTrafficWithoutSources(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs digs-snap")
	}
	bin, dir := servertest.Build(t, "digs-snap"), t.TempDir()
	snap, plan := filepath.Join(dir, "random.snap"), filepath.Join(dir, "crash.json")
	if err := os.WriteFile(plan, []byte(`{"name":"one-crash","seed":1,"entries":[`+
		`{"kind":"node-crash","targets":[40],"start":"5s","duration":"10s"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "take", "-topology", "random-150", "-protocol", "orchestra",
		"-slots", "6000", "-o", snap).CombinedOutput(); err != nil {
		t.Fatalf("take: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "resume", "-snap", snap, "-plan", plan).CombinedOutput()
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "totals: generated ") || strings.Contains(string(out), "totals: generated 0,") {
		t.Fatalf("no traffic under the plan:\n%s", out)
	}
}
