package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
)

// flagRun runs digs-sim with args and returns its stdout and stderr.
func flagRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("digs-sim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String()
}

// ran reads what a run printed to stderr: the spec's hash, its canonical
// JSON and the result's hash.
func ran(t *testing.T, stderr string) (specHash, specJSON, resultHash string) {
	t.Helper()
	m := regexp.MustCompile(`(?m)^spec ([0-9a-f]{64})\n(\{.*\})\nresult ([0-9a-f]{64}) \(warm_hit=`).
		FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no spec/result lines on stderr:\n%s", stderr)
	}
	return m[1], m[2], m[3]
}

// TestFlagPathMatchesRunSpec: the flags map to the hand-written spec of
// the same scenario — equal hashes — for every registered stack, with and
// without jammers, and the report prints that spec's RunSpec Result.
func TestFlagPathMatchesRunSpec(t *testing.T) {
	for _, proto := range scenario.RegisteredStacks() {
		for _, jammers := range []int{0, 2} {
			stdout, stderr := flagRun(t, "-topology", "half-testbed-a", "-protocol", proto,
				"-jammers", strconv.Itoa(jammers), "-seed", "4", "-duration", "30s")
			spec := scenario.Spec{
				Topology: "half-testbed-a", Protocol: proto, Seed: 4, Jammers: jammers,
				Window: scenario.Duration(30 * time.Second),
			}
			want, err := spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			specHash, _, resultHash := ran(t, stderr)
			if specHash != want {
				t.Fatalf("%s, %d jammers: flag spec %s, hand-written spec %s", proto, jammers, specHash, want)
			}
			res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
			if err != nil {
				t.Fatalf("%s, %d jammers: RunSpec: %v", proto, jammers, err)
			}
			if res.Sent == 0 || res.Delivered == 0 {
				t.Fatalf("%s, %d jammers: nothing measured: %+v", proto, jammers, *res)
			}
			if h, _ := res.HashResult(); h != resultHash {
				t.Errorf("%s, %d jammers: flag run result %s, RunSpec %s", proto, jammers, resultHash, h)
			}
			for _, line := range []string{
				fmt.Sprintf("network formed in %v\n", sim.TimeAt(res.FormationSlots)),
				fmt.Sprintf("PDR:                 %.3f (%d/%d packets)\n", res.PDR, res.Delivered, res.Sent),
				fmt.Sprintf("latency median:      %.0f ms  (p90 %.0f ms, max %.0f ms)\n",
					res.LatencyMedianMs, res.LatencyP90Ms, res.LatencyMaxMs),
				fmt.Sprintf("power per packet:    %.3f mW\n", res.PowerPerPacketMW),
			} {
				if !strings.Contains(stdout, line) {
					t.Errorf("%s, %d jammers: report lacks %q:\n%s", proto, jammers, line, stdout)
				}
			}
		}
	}
}

// TestFlagRunResubmits: the canonical spec a flag run prints, run through
// -spec, is the same spec and gives the same result.
func TestFlagRunResubmits(t *testing.T) {
	_, stderr := flagRun(t, "-topology", "half-testbed-a", "-protocol", "orchestra",
		"-seed", "2", "-duration", "20s", "-fail", "7", "-invariants")
	specHash, specJSON, resultHash := ran(t, stderr)
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	_, again := flagRun(t, "-spec", path)
	if h, _, r := ran(t, again); h != specHash || r != resultHash {
		t.Errorf("-spec of the printed spec: spec %s result %s, flag run %s %s", h, r, specHash, resultHash)
	}
}

// TestSpecFlowsMatchFlagPath: a WirelessHART flag run is the RunSpec run
// of its spec, whose manager schedules the flows it drives — a -flows
// count on half of Testbed A, where every packet arrives, and the default
// random set on random-150, which suggests no sources — so both deliver;
// and a warm-started run of the spec encodes to the cold run's bytes.
func TestSpecFlowsMatchFlagPath(t *testing.T) {
	for _, c := range []struct {
		topology string
		flows    int
		wantAll  int // packets sent, all delivered; 0 = some delivered
	}{{"half-testbed-a", 6, 72}, {"random-150", 0, 0}} {
		_, stderr := flagRun(t, "-topology", c.topology, "-protocol", "whart",
			"-flows", strconv.Itoa(c.flows), "-duration", "60s")
		_, _, flagResult := ran(t, stderr)
		spec := scenario.Spec{
			Topology: c.topology, Protocol: "whart", Seed: 1, Flows: c.flows,
			Window: scenario.Duration(60 * time.Second),
		}
		cache := &snapshot.Cache{Dir: t.TempDir()}
		var encoded [2][]byte
		for i := range encoded {
			res, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{Warm: cache})
			if err != nil {
				t.Fatal(err)
			}
			if encoded[i], err = res.Encode(); err != nil {
				t.Fatalf("%s: %v", c.topology, err)
			}
			if h, _ := res.HashResult(); h != flagResult {
				t.Errorf("%s: run %d of the spec gave result %s, the flag run %s", c.topology, i, h, flagResult)
			}
			if res.Delivered == 0 || c.wantAll > 0 && (res.Sent != c.wantAll || res.Delivered != res.Sent) {
				t.Fatalf("%s -flows %d delivered %d of %d", c.topology, c.flows, res.Delivered, res.Sent)
			}
		}
		if !bytes.Equal(encoded[0], encoded[1]) {
			t.Errorf("%s: warm %s, cold %s", c.topology, encoded[1], encoded[0])
		}
	}
}

// TestGenPlantFormsToSpecTarget: a flag run on a generated plant forms to
// the target a spec naming it gets (join 0.9 within 30 min), so digs-sim
// runs the 1 000-node plant instead of failing formation at join 1.0.
func TestGenPlantFormsToSpecTarget(t *testing.T) {
	flagRun(t, "-topology", "gen-plant-1000-3", "-duration", "10s")
}

// TestFailedSourceGeneratesNothing: -fail on a flow source crashes it half
// the window in, and from the crash slot on — a packet falling due in that
// slot included — the flow generates nothing, so its remaining packets are
// neither sent nor counted lost. A window under 2 min grows to the plan's
// horizon plus 60 s.
func TestFailedSourceGeneratesNothing(t *testing.T) {
	for _, c := range []struct {
		fail, duration string
		want           string // the report's window and packets sent
	}{
		// 8 flows x 24 packets.
		{"0", "2m", "2m0s window, 192 sent"},
		// Node 20's last 12 fall after the crash.
		{"20", "2m", "2m0s window, 180 sent"},
		// Node 3's flow is due in the crash slot: 12 sent before it.
		{"3", "2m", "2m0s window, 180 sent"},
		// 30 s + 60 s: 18 packets per flow, 6 from node 20.
		{"20", "60s", "1m30s window, 132 sent"},
	} {
		stdout, _ := flagRun(t, "-topology", "half-testbed-a", "-seed", "4",
			"-fail", c.fail, "-duration", c.duration)
		m := regexp.MustCompile(`results \((\S+) window(?s:.*)/(\d+) packets\)`).FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("no results in:\n%s", stdout)
		}
		if got := m[1] + " window, " + m[2] + " sent"; got != c.want {
			t.Errorf("-fail %s -duration %s: %s, want %s", c.fail, c.duration, got, c.want)
		}
	}
}

// TestFailOutsideDeployment: -fail names a node of the deployment, or the
// run is refused before it forms.
func TestFailOutsideDeployment(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-topology", "half-testbed-a", "-fail", "999"}, &stdout, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "target 999 outside topology (1..20)") {
		t.Fatalf("-fail 999 on 20 nodes: err %v", err)
	}
	if stdout.Len() > 0 {
		t.Errorf("a refused run printed:\n%s", stdout.String())
	}
}

// TestSpecRejectsIgnoredFlags: a -spec run is the spec alone, so a flag
// that would describe another scenario is an error, not silently dropped;
// -warm, -trace and -parallel, which do not change the result, are taken.
func TestSpecRejectsIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"topology":"half-testbed-a","seed":2,"window":"10s"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-spec", path, "-fail", "3", "-reps", "4", "-v", "-topology", "testbed-b"},
		&bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "drop -fail, -reps, -topology, -v") {
		t.Fatalf("-spec with scenario flags: err %v", err)
	}
	flagRun(t, "-spec", path, "-warm", filepath.Join(dir, "warm"),
		"-trace", filepath.Join(dir, "t.jsonl"), "-parallel", "1")
}

// TestDumpSchedule: -dump-schedule prints the node's roles for 600 slots,
// 12 rows of 50, after formation; a node outside the deployment and a
// multi-rep run are errors.
func TestDumpSchedule(t *testing.T) {
	stdout, _ := flagRun(t, "-topology", "half-testbed-a", "-dump-schedule", "5")
	rows := regexp.MustCompile(`(?m)^  +\d+  ([.EeSTR]{50})$`).FindAllStringSubmatch(stdout, -1)
	if len(rows) != 12 {
		t.Fatalf("%d schedule rows, want 12:\n%s", len(rows), stdout)
	}
	ebs := 0
	for _, r := range rows {
		ebs += strings.Count(r[1], "E")
	}
	if ebs == 0 {
		t.Errorf("node 5 sends no EB in 600 slots:\n%s", stdout)
	}
	for _, args := range [][]string{
		{"-topology", "half-testbed-a", "-dump-schedule", "0"},
		{"-topology", "half-testbed-a", "-dump-schedule", "21"},
		{"-topology", "half-testbed-a", "-dump-schedule", "5", "-reps", "2"},
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("digs-sim %s: no error", strings.Join(args, " "))
		}
	}
}
