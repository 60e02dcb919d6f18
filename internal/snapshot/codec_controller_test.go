package snapshot_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

func testMeta(proto string, nodes int) snapshot.Meta {
	return snapshot.Meta{
		Protocol: proto, Topology: "testbed-a", Nodes: nodes, NumAPs: 1,
		Seed: 7, Slot: 1234, ConfigHash: 99, Label: "t",
	}
}

func testNet(nodes int) *sim.NetworkState {
	return &sim.NetworkState{Seed: 7, ASN: 1234, Started: true, Failed: make([]bool, nodes+1)}
}

func testMACs(nodes int) []*mac.NodeState {
	out := make([]*mac.NodeState, nodes+1)
	for i := 1; i <= nodes; i++ {
		out[i] = &mac.NodeState{Synced: true, SyncedAt: int64(i)}
	}
	return out
}

// TestSDNStackStateRoundTrip drives every field of the SDN stack section
// through the wire format: controller-only tables, bounded control queues
// with source-routed frames, and the nil-vs-empty table distinctions.
func TestSDNStackStateRoundTrip(t *testing.T) {
	snap := synthSDN()
	wire, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := snapshot.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back.Stack, snap.Stack) {
		t.Fatalf("sdn stacks did not round-trip:\n got %+v\nwant %+v", back.Stack, snap.Stack)
	}
}

func synthSDN() *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Meta:  testMeta(controller.SDNProtocol, 3),
		Net:   testNet(3),
		MACs:  testMACs(3),
		Stack: states(sdnStates()),
	}
}

func sdnStates() []*controller.SDNStackState {
	return []*controller.SDNStackState{
		nil,
		{ // controller: collected reports, dissemination dedup, epochs
			Synced: true, OwnHops: 0,
			HasHops: true, HasRSS: true,
			Hops:         []controller.SDNHopsState{{Node: 2, Hops: 1, Heard: 900}},
			RSS:          []controller.SDNRSSState{{Node: 2, RSS: -61.25, Heard: 901}, {Node: 3, RSS: -80, Heard: 800}},
			NextMaintain: 1300, NextReport: 0,
			CfgEpoch: 5, Parent: 0, Children: []topology.NodeID{2, 3},
			CtrlQ: []controller.SDNCtrlState{
				{
					Frame: mac.FrameState{
						Kind: 9, Src: 1, Dst: 2, Origin: 3, BornASN: 1200,
						Route:   []topology.NodeID{2, 3},
						Payload: []byte{0, 5, 0, 0, 0, 2, 0},
					},
					Tries: 2, NotBefore: 1250,
				},
			},
			Reports: []controller.SDNReportState{
				{Node: 2, ASN: 1100, Neigh: []controller.SDNReportNeighbor{{Node: 1, RSS: -60}, {Node: 3, RSS: -72}}},
				{Node: 3, ASN: 1050, Neigh: nil},
			},
			Epoch: 5, EpochCount: 5, NextRecompute: 2700,
			LastSent: []controller.SDNSentState{
				{Node: 2, Parent: 1, Children: []topology.NodeID{3}},
				{Node: 3, Parent: 2},
			},
		},
		{ // routed switch: configured parent, pending relay, fresh tables
			Synced: true, Uplink: 1, OwnHops: 1,
			HasHops: true, Hops: []controller.SDNHopsState{{Node: 1, Hops: 0, Heard: 1000}},
			HasRSS: true, RSS: []controller.SDNRSSState{{Node: 1, RSS: -55, Heard: 1000}},
			NextMaintain: 1290, NextReport: 2100,
			CfgEpoch: 5, Parent: 1, Children: []topology.NodeID{3},
			ConsecParentFails: 3,
			CtrlQ: []controller.SDNCtrlState{
				{Frame: mac.FrameState{Kind: 8, Src: 2, Dst: 1, Origin: 2, BornASN: 1280, Payload: []byte{1, 0, 0, 0, 1, 60}}},
			},
		},
		{ // never-synced node: nil tables survive as nil
			OwnHops: 255,
		},
	}
}

// TestAdaptiveStackStateRoundTrip drives the adaptive allocator's section:
// RPL/trickle state, the cell budget counters, and both caches with their
// nil-vs-empty distinction.
func TestAdaptiveStackStateRoundTrip(t *testing.T) {
	snap := synthAdaptive()
	wire, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := snapshot.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back.Stack, snap.Stack) {
		t.Fatalf("adaptive stacks did not round-trip:\n got %+v\nwant %+v", back.Stack, snap.Stack)
	}
}

func synthAdaptive() *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Meta:  testMeta(controller.AdaptiveProtocol, 2),
		Net:   testNet(2),
		MACs:  testMACs(2),
		Stack: states(adaptiveStates()),
	}
}

func adaptiveStates() []*controller.AdaptiveStackState {
	return []*controller.AdaptiveStackState{
		nil,
		{
			NodeState: rpl.NodeState{
				Router:   rpl.RouterState{Rank: 4, Parent: 0},
				Trickle:  trickle.State{Interval: 100, Started: true},
				RNGDraws: 17,
				WantDIO:  true, NextMaintain: 500, NextSolicit: 700, Synced: true,
				HasChildCells: true,
				ChildCells:    []rpl.ChildCellState{{Slot: 74, Node: 2}, {Slot: 111, Node: 3}},
			},
			TxCells: 2, IdleTicks: 1, FailsSinceTick: 3, SentSinceTick: 4,
			HasNeighborCells: true,
			NeighborCells:    []controller.AdaptiveCellState{{Node: 2, Cells: 2}, {Node: 3, Cells: 1}},
		},
		{
			// Nil caches and an empty-but-refreshed child cache both
			// round-trip distinctly.
			NodeState: rpl.NodeState{
				Router:        rpl.RouterState{Rank: 8, Parent: 1},
				Trickle:       trickle.State{Interval: 200},
				HasChildCells: true,
			},
			TxCells: 1,
		},
	}
}

// TestValidateControllerSections rejects snapshots whose protocol and stack
// sections disagree.
func TestValidateControllerSections(t *testing.T) {
	snap := &snapshot.Snapshot{
		Meta:  testMeta(controller.SDNProtocol, 2),
		Net:   testNet(2),
		MACs:  testMACs(2),
		Stack: states([]*controller.SDNStackState{nil, {}}), // 2 entries for 2 nodes: wrong
	}
	if _, err := snapshot.Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire, _ := snapshot.Encode(snap)
	if _, err := snapshot.Decode(wire); err == nil {
		t.Fatal("decode accepted an sdn snapshot with a short stack section")
	}
}

// TestDiffAndSummaryCoverControllerStacks: Diff and Summary go through the
// stack contract, so the controller-layer stacks are covered like the
// paper's three — two snapshots differing in one stack field yield one
// diff line, and the routed count is the stack's own.
func TestDiffAndSummaryCoverControllerStacks(t *testing.T) {
	for _, tc := range []struct {
		synth  func() *snapshot.Snapshot
		mutate func(s *snapshot.Snapshot)
		line   string
		routed string
	}{
		{synthSDN,
			func(s *snapshot.Snapshot) { s.Stack[1].(*controller.SDNStackState).EpochCount++ },
			"sdn[1].EpochCount", "routing:     1/2 routed"},
		// Router and NextMaintain sit in the rpl.NodeState both RPL-family
		// states embed: they read as fields of the stack's own state.
		{synthAdaptive,
			func(s *snapshot.Snapshot) { s.Stack[2].(*controller.AdaptiveStackState).Router.HasParentedAt = true },
			"adpt[2].Router", "routing:     1/1 routed"},
		{synthOrchestra,
			func(s *snapshot.Snapshot) { s.Stack[3].(*orchestra.StackState).NextMaintain++ },
			"orch[3].NextMaintain: 650 vs 651", "routing:     3/2 routed"},
	} {
		a, b := tc.synth(), tc.synth()
		if d := snapshot.Diff(a, b); len(d) != 0 {
			t.Fatalf("identical %s snapshots diff: %v", a.Meta.Protocol, d)
		}
		tc.mutate(b)
		d := snapshot.Diff(a, b)
		if len(d) != 1 || !strings.HasPrefix(d[0], tc.line) {
			t.Errorf("%s: want one diff line on %s, got %v", a.Meta.Protocol, tc.line, d)
		}
		if sum := snapshot.Summary(b); !strings.Contains(sum, tc.routed) {
			t.Errorf("%s summary lacks %q:\n%s", a.Meta.Protocol, tc.routed, sum)
		}
	}
}
