// Package topology builds the node deployments the paper evaluates on:
// Testbed A (50 TelosB motes on one floor at SUNY Binghamton), Testbed B
// (44 motes spanning two floors at Washington University in St. Louis),
// their half-testbed subsets, and the random 300 m x 300 m placements used
// for the 150-node Cooja study. Positions are synthetic but reproduce the
// hop depth and link-quality mix of the physical deployments; see DESIGN.md
// section 1 for the substitution rationale.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
)

// NodeID identifies a device. Access points occupy the lowest IDs
// (1..NumAPs) so the autonomous scheduling formulas can derive slots from
// IDs directly.
type NodeID int

// Broadcast is the destination ID for link-layer broadcast frames.
const Broadcast NodeID = 0xFFFF

// Node is one placed device.
type Node struct {
	ID    NodeID
	X, Y  float64 // metres
	Floor int
	IsAP  bool
	// Label is the identifier the paper's figures use for this node (only
	// set for deployments where the paper names specific nodes).
	Label int
}

// Topology is an immutable deployment: node placements plus the radio
// parameters that determine link qualities.
type Topology struct {
	Name       string
	Nodes      []Node // index 0 unused; Nodes[i].ID == i
	NumAPs     int
	TxPowerDBm float64

	// ShadowSigmaDB is the standard deviation of the static per-link
	// log-normal shadowing. Zero disables shadowing (useful for
	// geometry-exact tests); the built-in deployments use 6 dB (typical indoor).
	ShadowSigmaDB float64

	// Suggested roles for experiments, mirroring Figure 8.
	SuggestedSources []NodeID
	SuggestedJammers []NodeID

	// ForceSparse marks deployments that must never materialise the dense
	// (n+1)^2 RSS matrix; RSS/Neighbors/Connected route through the
	// radius-pruned sparse adjacency instead. The procedural generators set
	// it, and any topology above the auto threshold behaves the same.
	ForceSparse bool

	// FastShadow selects the hash-based shadowing derivation instead of the
	// per-pair seeded-stream one (the first NormFloat64 of a source seeded
	// with the pair's seed). Both are pure symmetric functions of
	// (shadowSeed, a, b), and neither seeds a full generator state per
	// pair. The flag exists because the two paths draw different values:
	// the named testbeds and random-N placements keep the stream draw their
	// results were pinned on, the procedural generators use the hash. It is
	// a property of the topology (set at construction), never toggled later.
	FastShadow bool

	shadowSeed int64
	rssCache   [][]float64
	sparse     *SparseRSS
}

// N returns the number of devices (APs + field devices).
func (t *Topology) N() int { return len(t.Nodes) - 1 }

// APs returns the access point IDs (1..NumAPs).
func (t *Topology) APs() []NodeID {
	out := make([]NodeID, 0, t.NumAPs)
	for i := 1; i <= t.NumAPs; i++ {
		out = append(out, NodeID(i))
	}
	return out
}

// IsAP reports whether id is an access point.
func (t *Topology) IsAP(id NodeID) bool {
	return id >= 1 && int(id) <= t.NumAPs
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.Nodes[id] }

// Distance returns the 2D distance in metres between two nodes.
func (t *Topology) Distance(a, b NodeID) float64 {
	na, nb := t.Nodes[a], t.Nodes[b]
	dx, dy := na.X-nb.X, na.Y-nb.Y
	return math.Hypot(dx, dy)
}

// Floors returns the number of floors separating two nodes.
func (t *Topology) Floors(a, b NodeID) int {
	d := t.Nodes[a].Floor - t.Nodes[b].Floor
	if d < 0 {
		d = -d
	}
	return d
}

// RSS returns the mean received signal strength of the link a->b in dBm,
// including the static per-link shadowing term. Shadowing is symmetric and
// deterministic in the topology seed, so runs are reproducible. On
// sparse-only topologies, pairs pruned from the sparse adjacency report
// -MaxFloat64 (unreceivable) rather than their true sub-floor mean.
func (t *Topology) RSS(a, b NodeID) float64 {
	if t.SparseOnly() {
		v, _ := t.SparseView().RSS(a, b)
		return v
	}
	if t.rssCache == nil {
		t.buildRSSCache()
	}
	return t.rssCache[a][b]
}

// PRR returns the mean packet reception rate of the link a->b.
func (t *Topology) PRR(a, b NodeID) float64 {
	return phy.PRR(t.RSS(a, b))
}

// Neighbors returns every node whose mean RSS from id is above the radio
// sensitivity floor, i.e. the physical neighbourhood.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	if t.SparseOnly() {
		cols, vals, _ := t.SparseView().Row(id)
		var out []NodeID
		for i, b := range cols {
			if vals[i] >= phy.SensitivityDBm {
				out = append(out, b)
			}
		}
		return out
	}
	var out []NodeID
	for i := 1; i <= t.N(); i++ {
		n := NodeID(i)
		if n == id {
			continue
		}
		if t.RSS(id, n) >= phy.SensitivityDBm {
			out = append(out, n)
		}
	}
	return out
}

func (t *Topology) buildRSSCache() {
	n := t.N()
	t.rssCache = make([][]float64, n+1)
	for i := range t.rssCache {
		t.rssCache[i] = make([]float64, n+1)
	}
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			loss := phy.PathLossDB(t.Distance(NodeID(a), NodeID(b)), t.Floors(NodeID(a), NodeID(b)))
			shadow := t.shadowing(a, b)
			rss := phy.RSS(t.TxPowerDBm, loss, shadow)
			t.rssCache[a][b] = rss
			t.rssCache[b][a] = rss
		}
	}
	for a := 0; a <= n; a++ {
		t.rssCache[a][a] = -math.MaxFloat64
	}
}

// shadowing derives a deterministic, symmetric log-normal shadowing term
// for the unordered pair {a, b}.
func (t *Topology) shadowing(a, b int) float64 {
	if t.ShadowSigmaDB == 0 {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	if t.FastShadow {
		h := detrand.Hash3(uint64(t.shadowSeed), uint64(a), uint64(b), 0)
		return detrand.Norm(h) * t.ShadowSigmaDB
	}
	return shadowDraw(t.shadowSeed*1000003+int64(a)*8191+int64(b)) * t.ShadowSigmaDB
}

// shadowDraw is the unit-normal shadowing draw of one pair seed: the first
// NormFloat64 of math/rand's stream for that seed, which a detrand source
// computes from the few seeding words it reads.
func shadowDraw(seed int64) float64 {
	return rand.New(detrand.New(seed)).NormFloat64()
}

// Validate checks structural invariants: contiguous IDs, APs first, and at
// least one AP.
func (t *Topology) Validate() error {
	if t.NumAPs < 1 {
		return fmt.Errorf("topology %q: needs at least one access point", t.Name)
	}
	if len(t.Nodes) < t.NumAPs+2 {
		return fmt.Errorf("topology %q: needs at least one field device", t.Name)
	}
	for i := 1; i < len(t.Nodes); i++ {
		if t.Nodes[i].ID != NodeID(i) {
			return fmt.Errorf("topology %q: node at index %d has ID %d", t.Name, i, t.Nodes[i].ID)
		}
		if t.Nodes[i].IsAP != (i <= t.NumAPs) {
			return fmt.Errorf("topology %q: node %d AP flag inconsistent with NumAPs=%d", t.Name, i, t.NumAPs)
		}
	}
	return nil
}

// Connected reports whether every field device can reach an access point
// over links with PRR of at least minPRR, and returns the first unreachable
// node if not.
func (t *Topology) Connected(minPRR float64) (bool, NodeID) {
	if t.SparseOnly() {
		return t.connectedSparse(minPRR)
	}
	n := t.N()
	visited := make([]bool, n+1)
	queue := make([]NodeID, 0, n)
	for _, ap := range t.APs() {
		visited[ap] = true
		queue = append(queue, ap)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := 1; i <= n; i++ {
			if visited[i] {
				continue
			}
			if t.PRR(cur, NodeID(i)) >= minPRR {
				visited[i] = true
				queue = append(queue, NodeID(i))
			}
		}
	}
	for i := 1; i <= n; i++ {
		if !visited[i] {
			return false, NodeID(i)
		}
	}
	return true, 0
}
