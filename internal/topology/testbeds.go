package topology

import (
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
)

// Radio power used on the indoor testbeds. The physical testbeds run the
// CC2420 at reduced power to induce multi-hop routing; -15 dBm reproduces
// the 3-6 hop depth of the paper's deployments on these floor plans.
const testbedTxPowerDBm = -15.0

// TestbedA builds the 50-node single-floor deployment modelled on the
// SUNY Binghamton testbed: a 62 m x 30 m office floor with nodes in a
// jittered grid, two access points near the building core, and the three
// jammer positions used in Section VII-A.
func TestbedA() *Topology {
	const (
		nodes = 50
		seed  = 41
	)
	t := &Topology{
		Name:          "testbed-a",
		NumAPs:        2,
		TxPowerDBm:    testbedTxPowerDBm,
		ShadowSigmaDB: 6.0,
		shadowSeed:    seed,
	}
	r := rand.New(detrand.New(seed))
	t.Nodes = append(t.Nodes, Node{}) // index 0 unused

	// Access points near the building core. WirelessHART wires all access
	// points to the gateway, so they sit close together with overlapping
	// coverage: that overlap is what gives first-hop devices a backup
	// route through the second AP.
	t.Nodes = append(t.Nodes,
		Node{ID: 1, X: 28, Y: 13, IsAP: true, Label: 101},
		Node{ID: 2, X: 33, Y: 17, IsAP: true, Label: 102},
	)

	// Field devices: 48 nodes on a jittered 12x4 grid covering the floor.
	id := NodeID(3)
	for col := 0; col < 12; col++ {
		for row := 0; row < 4; row++ {
			x := 2.5 + float64(col)*5.2 + r.Float64()*2.0
			y := 3.0 + float64(row)*8.0 + r.Float64()*2.0
			t.Nodes = append(t.Nodes, Node{ID: id, X: x, Y: y, Label: 100 + int(id)})
			id++
		}
	}

	// Eight flow sources spread across the floor (far corners and mid
	// points), and the three JamLab jammer positions from Figure 8(a).
	t.SuggestedSources = []NodeID{3, 6, 24, 27, 46, 49, 14, 37}
	t.SuggestedJammers = []NodeID{10, 26, 42}
	return t
}

// HalfTestbedA is the 20-node subset of Testbed A used for the scaling
// measurements in Figure 3 (one wing of the floor plus both APs).
func HalfTestbedA() *Topology {
	full := TestbedA()
	ids := []NodeID{1, 2}
	for i := NodeID(3); len(ids) < 20; i++ {
		// Keep the western wing (x < 35 m) so the subset stays connected.
		if full.Node(i).X < 35 {
			ids = append(ids, i)
		}
	}
	sub := Subset(full, "half-testbed-a", ids)
	sub.SuggestedSources = []NodeID{3, 5, 8, 11, 14, 17, 19, 20}
	sub.SuggestedJammers = []NodeID{7, 12}
	return sub
}

// TestbedB builds the 44-node two-floor deployment modelled on the WUSTL
// testbed. Node labels follow Figure 8(b): access points 130 and 128,
// sources 144, 126, 136, 142, 115 and 106, jammers 124, 141 and 138.
func TestbedB() *Topology {
	const seed = 73
	t := &Topology{
		Name:          "testbed-b",
		NumAPs:        2,
		TxPowerDBm:    testbedTxPowerDBm,
		ShadowSigmaDB: 6.0,
		shadowSeed:    seed,
	}
	r := rand.New(detrand.New(seed))
	t.Nodes = append(t.Nodes, Node{}) // index 0 unused

	// APs sit at the stairwell core, one per floor, vertically stacked so
	// nodes near the core reach both (the inter-floor link at the core is
	// short enough to serve as a backup path).
	t.Nodes = append(t.Nodes,
		Node{ID: 1, X: 26, Y: 12, Floor: 0, IsAP: true, Label: 130},
		Node{ID: 2, X: 27, Y: 13, Floor: 1, IsAP: true, Label: 128},
	)

	// 21 field devices per floor on a jittered 7x3 grid of a 52 m x 24 m
	// floor plate.
	id := NodeID(3)
	labels := testbedBLabels()
	for floor := 0; floor < 2; floor++ {
		for col := 0; col < 7; col++ {
			for row := 0; row < 3; row++ {
				x := 3.0 + float64(col)*7.4 + r.Float64()*2.2
				y := 3.0 + float64(row)*8.4 + r.Float64()*2.2
				t.Nodes = append(t.Nodes, Node{
					ID: id, X: x, Y: y, Floor: floor, Label: labels[int(id)],
				})
				id++
			}
		}
	}

	t.SuggestedSources = t.byLabels(144, 126, 136, 142, 115, 106)
	t.SuggestedJammers = t.byLabels(124, 141, 138)
	return t
}

// testbedBLabels assigns Figure 8(b) labels to the 44 node IDs. The named
// roles get placements matching their role: sources at floor extremities,
// jammers mid-floor where they cover many links.
func testbedBLabels() map[int]int {
	labels := make(map[int]int, 44)
	// Named nodes: sources far from the APs, jammers central.
	named := map[int]int{
		3: 144, 23: 126, 9: 136, 29: 142, 21: 115, 41: 106, // sources
		12: 124, 32: 141, 17: 138, // jammers
	}
	next := 103
	used := map[int]bool{130: true, 128: true}
	for _, l := range named {
		used[l] = true
	}
	for id := 3; id <= 44; id++ {
		if l, ok := named[id]; ok {
			labels[id] = l
			continue
		}
		for used[next] {
			next++
		}
		labels[id] = next
		used[next] = true
	}
	return labels
}

func (t *Topology) byLabels(labels ...int) []NodeID {
	out := make([]NodeID, 0, len(labels))
	for _, l := range labels {
		for _, n := range t.Nodes[1:] {
			if n.Label == l {
				out = append(out, n.ID)
				break
			}
		}
	}
	return out
}

// HalfTestbedB is the 19-node single-floor subset used in Figure 3.
func HalfTestbedB() *Topology {
	full := TestbedB()
	ids := []NodeID{1, 2}
	for i := NodeID(3); len(ids) < 19 && int(i) <= full.N(); i++ {
		if full.Node(i).Floor == 0 {
			ids = append(ids, i)
		}
	}
	sub := Subset(full, "half-testbed-b", ids)
	sub.SuggestedSources = []NodeID{3, 6, 9, 12, 15, 18}
	sub.SuggestedJammers = []NodeID{8, 13}
	return sub
}

// Subset builds a new topology from a subset of nodes of an existing one,
// renumbering IDs contiguously with access points first. The per-link
// shadowing of retained links is preserved via the parent's seed.
func Subset(parent *Topology, name string, ids []NodeID) *Topology {
	sub := &Topology{
		Name:          name,
		TxPowerDBm:    parent.TxPowerDBm,
		ShadowSigmaDB: parent.ShadowSigmaDB,
		shadowSeed:    parent.shadowSeed,
	}
	sub.Nodes = append(sub.Nodes, Node{})
	// APs first.
	next := NodeID(1)
	for _, pass := range []bool{true, false} {
		for _, id := range ids {
			n := parent.Node(id)
			if n.IsAP != pass {
				continue
			}
			n.ID = next
			sub.Nodes = append(sub.Nodes, n)
			if n.IsAP {
				sub.NumAPs++
			}
			next++
		}
	}
	return sub
}

// NewRandom places n field devices uniformly at random in an areaX x areaY
// metre field with two access points on the field's midline, reproducing
// the 150-node Cooja setup of Section VII-D (300 m x 300 m, full CC2420
// power).
func NewRandom(n int, areaX, areaY float64, seed int64) *Topology {
	t := &Topology{
		Name:          "random",
		NumAPs:        2,
		TxPowerDBm:    0,
		ShadowSigmaDB: 6.0,
		shadowSeed:    seed,
	}
	r := rand.New(detrand.New(seed))
	t.Nodes = append(t.Nodes, Node{})
	t.Nodes = append(t.Nodes,
		Node{ID: 1, X: areaX/2 - areaX/15, Y: areaY / 2, IsAP: true},
		Node{ID: 2, X: areaX/2 + areaX/15, Y: areaY / 2, IsAP: true},
	)
	for i := 0; i < n; i++ {
		id := NodeID(3 + i)
		t.Nodes = append(t.Nodes, Node{
			ID: id,
			X:  r.Float64() * areaX,
			Y:  r.Float64() * areaY,
		})
	}
	return t
}
