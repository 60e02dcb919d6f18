package scenario

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/whart"
)

// joinedWalk counts the synchronised and joined nodes by asking every one
// of them: the reference the kept JoinedCount must equal.
func joinedWalk(t *testing.T, sc *Scenario) int {
	t.Helper()
	switch b := sc.Bundle.(type) {
	case *core.Network:
		return walkJoined(b)
	case *orchestra.Network:
		return walkJoined(b)
	case *whart.Network:
		return walkJoined(b.Network)
	case *controller.SDNNetwork:
		return walkJoined(b)
	case *controller.AdaptiveNetwork:
		return walkJoined(b)
	}
	t.Fatalf("no join walk for %T", sc.Bundle)
	return 0
}

func walkJoined[S stack.Node](n *stack.Network[S]) int {
	joined := 0
	for i := 1; i < len(n.Nodes); i++ {
		if synced, _ := n.Nodes[i].Synced(); synced && n.Stacks[i].Joined() {
			joined++
		}
	}
	return joined
}

func encodedSnapshot(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	snap, err := sc.Take("formed", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormMatchesSlotBySlot: Form, whose RunUntil jumps the stretches in
// which every device naps and whose predicate reads the kept join count,
// ends where a reference that steps one slot at a time and walks every
// node before each slot ends — same formation slots, joined count, snapshot
// bytes and loop counts, the jumped slots aside.
func TestFormMatchesSlotBySlot(t *testing.T) {
	type formCase struct{ topology, protocol string }
	cases := []formCase{{"gen-plant-300-1", "digs"}}
	for _, p := range RegisteredStacks() {
		cases = append(cases, formCase{"testbed-a", p})
	}
	const frac, timeout, settle = 0.9, 30 * time.Minute, 10 * time.Second
	for _, c := range cases {
		build := func() *Scenario {
			sc, err := Build(Params{TopologyName: c.topology, Protocol: c.protocol, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}
		fast := build()
		f, err := fast.Form(context.Background(), nil, frac, timeout, settle)
		if err != nil {
			t.Fatal(err)
		}

		ref := build()
		target := JoinTarget(frac, ref.Params.Topology.N())
		var slots int64
		for joinedWalk(t, ref) < target {
			if slots == sim.SlotsFor(timeout) {
				t.Fatalf("%s/%s: the reference did not form", c.topology, c.protocol)
			}
			ref.NW.Step()
			slots++
		}
		for i := sim.SlotsFor(settle); i > 0; i-- {
			ref.NW.Step()
		}

		if joined := joinedWalk(t, ref); f.Slots != slots || f.Joined != joined {
			t.Errorf("%s/%s: Form took %d slots to %d joined, slot by slot %d to %d",
				c.topology, c.protocol, f.Slots, f.Joined, slots, joined)
		}
		got, want := fast.NW.LoopStats(), ref.NW.LoopStats()
		if got.FastForwarded == 0 || want.FastForwarded != 0 {
			t.Errorf("%s/%s: %d slots jumped by Form, %d slot by slot: the comparison is vacuous",
				c.topology, c.protocol, got.FastForwarded, want.FastForwarded)
		}
		got.FastForwarded = 0
		if got != want {
			t.Errorf("%s/%s: loop counts\n got %v\nwant %v", c.topology, c.protocol, got, want)
		}
		if !bytes.Equal(encodedSnapshot(t, fast), encodedSnapshot(t, ref)) {
			t.Errorf("%s/%s: the formed networks' snapshots differ", c.topology, c.protocol)
		}
	}
}

// TestJoinedCountKept: the kept join count equals a walk over every node
// after every slot — through formation, a snapshot restore, a fault plan
// that reboots one node with and one without its routing state, and a
// watchdog heal of a node whose clock drifted out of sync — on every
// stack.
func TestJoinedCountKept(t *testing.T) {
	for _, proto := range RegisteredStacks() {
		build := func() *Scenario {
			sc, err := Build(Params{TopologyName: "half-testbed-a", Protocol: proto, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}
		sc := build()
		drops := 0
		step := func(sc *Scenario, slots int64, phase string) {
			t.Helper()
			for ; slots > 0; slots-- {
				before := sc.Joined()
				sc.NW.Step()
				got, want := sc.Joined(), joinedWalk(t, sc)
				if got != want {
					t.Fatalf("%s, %s: joined count %d after slot %d, walk %d", proto, phase, got, sc.NW.ASN()-1, want)
				}
				if got < before {
					drops++
				}
			}
		}

		n := sc.Params.Topology.N()
		if got, want := sc.Joined(), joinedWalk(t, sc); got != want {
			t.Fatalf("%s: joined count %d before the first slot, walk %d", proto, got, want)
		}
		for sc.Joined() < n*9/10 {
			if sc.NW.ASN() > 30000 {
				t.Fatalf("%s: only %d/%d joined", proto, sc.Joined(), n)
			}
			step(sc, 1, "formation")
		}
		step(sc, 1000, "formed")

		twin := build()
		twin.Joined() // counting from the fresh build: the restore must recount
		snap, err := sc.Take("kept", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got, want := twin.Joined(), joinedWalk(t, twin); got != want || got != sc.Joined() {
			t.Fatalf("%s: restored count %d, walk %d, original %d", proto, got, want, sc.Joined())
		}
		step(twin, 500, "restored")

		// The first victim is the field device most others route through,
		// so the traffic below finds its parent dead; the others are leaves
		// as far as possible.
		children := make([]int, n+1)
		for _, st := range sc.Prober(sc.NW)(nil) {
			if st.Parent != 0 && !sc.Params.Topology.IsAP(st.Parent) {
				children[st.Parent]++
			}
		}
		var victims []topology.NodeID
		for id := topology.NodeID(1); int(id) <= n; id++ {
			if children[id] > 0 && (len(victims) == 0 || children[id] > children[victims[0]]) {
				victims = []topology.NodeID{id}
			}
		}
		for id := topology.NodeID(n); id >= 1 && len(victims) < 3; id-- {
			if synced, _ := sc.MACNode(int(id)).Synced(); synced && !sc.Params.Topology.IsAP(id) && children[id] == 0 {
				victims = append(victims, id)
			}
		}
		if len(victims) < 3 {
			t.Fatalf("%s: victims %v: too few synchronised field devices", proto, victims)
		}
		crash := func(id topology.NodeID, lose bool) chaos.Entry {
			return chaos.Entry{Kind: chaos.KindNodeCrash, Targets: []topology.NodeID{id},
				Start: chaos.Duration(5 * time.Second), Duration: chaos.Duration(10 * time.Second), LoseState: lose}
		}
		plan := &chaos.Plan{Name: "kept-count", Seed: 5, Entries: []chaos.Entry{crash(victims[0], true), crash(victims[1], false)}}
		obs, err := sc.Observe(nil, true, plan)
		if err != nil {
			t.Fatal(err)
		}
		sc.Drive(flows.FixedSet(sc.Params.Topology.SuggestedSources, 2*time.Second), 40, 0, nil)
		sc.NW.SetClockDrift(victims[2], 1.0, 7)
		step(sc, 5000, "faults")
		sc.NW.SetClockDrift(victims[2], 0, 0)
		step(sc, 3000, "recovery")
		if err := obs.Close(); err != nil {
			t.Fatal(err)
		}
		if repairs := obs.Monitor.Report().Repairs; repairs == 0 || drops == 0 {
			t.Fatalf("%s: %d watchdog repairs, the count fell %d times: a path is not exercised", proto, repairs, drops)
		}
	}
}
