package scenario

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/topology"
)

// densePinsFile holds one "<case> <HashResult>" line per dense-medium case
// below, recorded at the commit before the dense slot loop learned to nap
// (PR 17's tree). It is the dense counterpart of the scale digests: any
// change to the slot loop, a stack's schedule tables or its NextActive that
// moves one simulated bit moves a line here.
const densePinsFile = "testdata/dense_results.txt"

var updateDensePins = flag.Bool("update-dense-pins", false,
	"re-record "+densePinsFile+" (a declared re-baselining, never a fix)")

// denseCrashPlan exercises every stateful fault the dense medium carries on
// top of the asked-for crash and reboot with state loss: the crash takes a
// relay out mid-window, the fade and the drift hit other nodes while their
// neighbours nap.
func denseCrashPlan(seed int64) *chaos.Plan {
	return &chaos.Plan{Name: "dense-pin-crash", Seed: seed, Entries: []chaos.Entry{
		{Kind: chaos.KindNodeCrash, Targets: []topology.NodeID{7},
			Start: chaos.Duration(8 * time.Second), Duration: chaos.Duration(12 * time.Second), LoseState: true},
		{Kind: chaos.KindLinkFade, Targets: []topology.NodeID{11},
			Start: chaos.Duration(5 * time.Second), Duration: chaos.Duration(10 * time.Second), FadeDB: 12},
		{Kind: chaos.KindClockDrift, Targets: []topology.NodeID{13},
			Start: chaos.Duration(3 * time.Second), Duration: chaos.Duration(20 * time.Second), DriftPPM: 4000},
	}}
}

// denseCases enumerates every registered stack x three dense testbeds x
// three seeds x {no plan, fig8, crash plan}; the first seed of each also
// runs the invariant monitor with its healer.
func denseCases() map[string]Spec {
	cases := make(map[string]Spec)
	for _, proto := range RegisteredStacks() {
		for _, topo := range []string{"testbed-a", "half-testbed-a", "testbed-b"} {
			for i, seed := range []int64{2, 5, 9} {
				for _, plan := range []string{"none", "fig8", "crash"} {
					s := Spec{
						Topology: topo, Protocol: proto, Seed: seed,
						Period: Duration(2 * time.Second), Window: Duration(20 * time.Second),
						JoinFraction: 0.9, Invariants: i == 0,
					}
					switch plan {
					case "fig8":
						s.PlanName = "fig8"
					case "crash":
						s.Plan = denseCrashPlan(seed)
					}
					cases[fmt.Sprintf("%s/%s/%d/%s", proto, topo, seed, plan)] = s
				}
			}
		}
	}
	return cases
}

func TestDenseResultsPinned(t *testing.T) {
	cases := denseCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	got := make(map[string]string, len(cases))
	for _, name := range names {
		res, _, err := RunSpec(context.Background(), cases[name], RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got[name], err = res.HashResult(); err != nil {
			t.Fatal(err)
		}
	}

	if *updateDensePins {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(densePinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(densePinsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := 0
	for sc := bufio.NewScanner(f); sc.Scan(); pinned++ {
		name, want, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", densePinsFile, sc.Text())
		}
		if h, run := got[name]; !run {
			t.Errorf("%s pins %s, which no case produces", densePinsFile, name)
		} else if h != want {
			t.Errorf("%s: result hash %s, pinned %s", name, h, want)
		}
	}
	if pinned != len(cases) {
		t.Errorf("%s pins %d cases, the test runs %d", densePinsFile, pinned, len(cases))
	}
}
