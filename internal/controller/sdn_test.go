package controller

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"github.com/digs-net/digs/internal/topology"
)

// TestReportWireRoundTrip drives the report payload both ways, including
// the RSS clamping to the one-byte attenuation field.
func TestReportWireRoundTrip(t *testing.T) {
	in := []SDNReportNeighbor{
		{Node: 1, RSS: -60},
		{Node: 70000, RSS: -91},
		{Node: 3, RSS: -255},
	}
	out, err := unmarshalReport(marshalReport(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("report round-trip: got %+v want %+v", out, in)
	}

	// Out-of-range RSS clamps instead of wrapping.
	clamped, err := unmarshalReport(marshalReport([]SDNReportNeighbor{
		{Node: 2, RSS: -300}, {Node: 4, RSS: 10},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if clamped[0].RSS != -255 || clamped[1].RSS != 0 {
		t.Fatalf("clamping failed: %+v", clamped)
	}

	// Truncated payloads are rejected, not misread.
	b := marshalReport(in)
	for _, bad := range [][]byte{nil, {}, b[:len(b)-1], append(append([]byte(nil), b...), 0)} {
		if _, err := unmarshalReport(bad); err == nil {
			t.Fatalf("unmarshalReport accepted %d bytes", len(bad))
		}
	}
}

// TestConfigWireRoundTrip drives the config payload both ways.
func TestConfigWireRoundTrip(t *testing.T) {
	cases := []struct {
		epoch    uint16
		parent   topology.NodeID
		children []topology.NodeID
	}{
		{1, 5, []topology.NodeID{2, 3, 70000}},
		{65535, 0, nil},
		{9, 1, []topology.NodeID{}},
	}
	for _, c := range cases {
		e, p, ch, err := unmarshalConfig(marshalConfig(c.epoch, c.parent, c.children))
		if err != nil {
			t.Fatal(err)
		}
		if e != c.epoch || p != c.parent || len(ch) != len(c.children) {
			t.Fatalf("config round-trip: got (%d,%d,%v) want %+v", e, p, ch, c)
		}
		for i := range ch {
			if ch[i] != c.children[i] {
				t.Fatalf("child %d: got %d want %d", i, ch[i], c.children[i])
			}
		}
	}
	b := marshalConfig(3, 1, []topology.NodeID{2})
	for _, bad := range [][]byte{nil, b[:6], b[:len(b)-1], append(append([]byte(nil), b...), 0)} {
		if _, _, _, err := unmarshalConfig(bad); err == nil {
			t.Fatalf("unmarshalConfig accepted %d bytes", len(bad))
		}
	}
}

// TestEpochNewer pins the lollipop semantics: forward progress and
// controller-restart jumps win; small regressions and replays lose.
func TestEpochNewer(t *testing.T) {
	cases := []struct {
		e, have uint16
		want    bool
	}{
		{1, 0, true},       // first config
		{5, 4, true},       // normal advance
		{5, 5, false},      // replay
		{4, 5, false},      // stale
		{5, 36, false},     // small regression: ignore
		{1, 40, true},      // huge regression: controller restarted
		{2, 65530, true},   // wraparound advance
		{65530, 2, false},  // small regression hidden by the wrap: ignore
		{100, 30000, true}, // huge backward jump: restart
	}
	for _, c := range cases {
		if got := epochNewer(c.e, c.have); got != c.want {
			t.Errorf("epochNewer(%d, %d) = %v, want %v", c.e, c.have, got, c.want)
		}
	}
}

// graphFromEdges builds the controller's adjacency view directly, the way
// buildGraph does once it has symmetrized the reports.
func graphFromEdges(edges map[[2]topology.NodeID]float64) *sdnGraph {
	var list []sdnEdge
	for k, etx := range edges {
		list = append(list, sdnEdge{a: k[0], b: k[1], w: etx})
	}
	slices.SortFunc(list, func(x, y sdnEdge) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	return newSDNGraph(list)
}

// predecessors names the graph's predecessor positions by node ID.
func predecessors(g *sdnGraph, prev []int) map[topology.NodeID]topology.NodeID {
	out := map[topology.NodeID]topology.NodeID{}
	for i, p := range prev {
		if p >= 0 {
			out[g.nodes[i]] = g.nodes[p]
		}
	}
	return out
}

// TestShortestPathsDeterministic proves the controller's route computation
// is a pure function of the graph: equal-cost ties break to the lower node
// ID, and repeated runs return identical predecessors.
func TestShortestPathsDeterministic(t *testing.T) {
	// 1 is the sink. 4 can reach it through 2 or 3 at identical cost; the
	// tie must break to 2 every time.
	g := graphFromEdges(map[[2]topology.NodeID]float64{
		{1, 2}: 1, {1, 3}: 1, {2, 4}: 1, {3, 4}: 1, {4, 5}: 2,
	})
	first := predecessors(g, g.shortestPaths([]topology.NodeID{1}))
	if first[4] != 2 {
		t.Fatalf("tie-break: node 4's predecessor is %d, want 2", first[4])
	}
	if first[5] != 4 || first[2] != 1 || first[3] != 1 {
		t.Fatalf("tree shape wrong: %v", first)
	}
	for i := 0; i < 50; i++ {
		if again := predecessors(g, g.shortestPaths([]topology.NodeID{1})); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d diverged: %v vs %v", i, again, first)
		}
	}

	// Unreachable nodes get no predecessor and pathFrom reports nil.
	g2 := graphFromEdges(map[[2]topology.NodeID]float64{
		{1, 2}: 1, {8, 9}: 1,
	})
	prev := g2.shortestPaths([]topology.NodeID{1})
	pos := func(n topology.NodeID) int {
		i, ok := g2.pos(n)
		if !ok {
			t.Fatalf("node %d not in the graph", n)
		}
		return i
	}
	if _, ok := predecessors(g2, prev)[9]; ok {
		t.Fatal("disconnected node 9 got a predecessor")
	}
	if p := g2.pathFrom(prev, pos(1), pos(9)); p != nil {
		t.Fatalf("pathFrom to unreachable node: %v", p)
	}
	if p := g2.pathFrom(prev, pos(1), pos(2)); len(p) != 1 || p[0] != 2 {
		t.Fatalf("pathFrom(1→2) = %v", p)
	}
	if p := g2.pathFrom(prev, pos(1), pos(1)); p == nil || len(p) != 0 {
		t.Fatalf("pathFrom to self = %v", p)
	}
}

// TestSDNCellLayout pins the cell hash and its lane split so config
// changes that would silently desynchronize deployed snapshots fail here.
func TestSDNCellLayout(t *testing.T) {
	if got := sdnCell(9, 53); got != (9*37)%53 {
		t.Fatalf("sdnCell(9) = %d", got)
	}
	for id := topology.NodeID(1); id <= 300; id++ {
		lane := sdnCtrlLane(id)
		if lane < sdnCtrlChannelBase || lane >= sdnCtrlChannelBase+sdnCtrlLanes {
			t.Fatalf("ctrl lane %d out of range for node %d", lane, id)
		}
		dl := sdnDataLane(id)
		if dl < sdnDataChannelBase || dl >= sdnDataChannelBase+sdnDataLanes {
			t.Fatalf("data lane %d out of range for node %d", dl, id)
		}
	}
}
