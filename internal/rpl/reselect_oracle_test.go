package rpl

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// mapRouter is the router with its neighbour table in a map, as it was
// before the table became an ascending-ID slice: the reference the table
// must reproduce choice for choice. It owns a Router for everything but the
// neighbour table and walks the map in Go's randomised order, so its
// choices rest on the ID tie-break alone.
type mapRouter struct {
	r         *Router
	neighbors map[topology.NodeID]neighborEntry
}

func (m *mapRouter) onDIO(asn sim.ASN, from topology.NodeID, d DIO, rssiDBm float64) bool {
	m.r.est.Observe(from, rssiDBm)
	m.neighbors[from] = neighborEntry{rank: d.Rank, pathETX: d.PathETX, lastHeard: asn}
	if m.r.isRoot {
		return false
	}
	return m.reselect(asn)
}

func (m *mapRouter) onTxResult(asn sim.ASN, to topology.NodeID, acked bool) bool {
	m.r.est.TxResult(to, acked)
	if m.r.isRoot || acked {
		return false
	}
	return m.reselect(asn)
}

func (m *mapRouter) maintain(asn sim.ASN) bool {
	for id, n := range m.neighbors {
		if asn-n.lastHeard > m.r.neighborTimeout {
			delete(m.neighbors, id)
			m.r.est.Forget(id)
		}
	}
	if m.r.isRoot {
		return false
	}
	return m.reselect(asn)
}

func (m *mapRouter) cost(n topology.NodeID, e neighborEntry) float64 {
	l := m.r.est.ETX(n)
	if l >= phy.ETXUnreachable {
		return math.Inf(1)
	}
	return l + e.pathETX
}

// reselect is Router.reselect over the map.
func (m *mapRouter) reselect(asn sim.ASN) bool {
	r := m.r
	oldParent := r.parent

	best := topology.NodeID(0)
	bestCost := math.Inf(1)
	for id, e := range m.neighbors {
		if e.rank >= RankInfinity {
			continue
		}
		if r.rank < RankInfinity && e.rank >= r.rank {
			continue
		}
		if c := m.cost(id, e); c < bestCost || (c == bestCost && best != 0 && id < best) {
			best, bestCost = id, c
		}
	}
	if oldParent != 0 && best != oldParent {
		if e, ok := m.neighbors[oldParent]; ok && e.rank < RankInfinity && e.rank < r.rank {
			if c := m.cost(oldParent, e); !math.IsInf(c, 1) && bestCost > c-parentSwitchMargin {
				best, bestCost = oldParent, c
			}
		}
	}
	if best == 0 {
		r.parent = 0
		r.rank = RankInfinity
		r.pathETX = math.Inf(1)
		return oldParent != 0
	}

	r.parent = best
	rank := m.neighbors[best].rank + r.rankIncrease(r.est.ETX(best))
	if rank < m.neighbors[best].rank || rank >= RankInfinity {
		rank = RankInfinity - 1
	}
	r.rank = rank
	r.pathETX = bestCost
	if !r.hasParentedAt {
		r.hasParentedAt = true
		r.firstParentAt = asn
	}
	if best != oldParent {
		r.parentChanges++
		return true
	}
	return false
}

// potentialChildren is Router.PotentialChildren over the map, sorted.
func (m *mapRouter) potentialChildren() []topology.NodeID {
	if m.r.rank >= RankInfinity {
		return nil
	}
	var out []topology.NodeID
	for id, e := range m.neighbors {
		if e.rank > m.r.rank && e.rank < RankInfinity {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestReselectMatchesMapReference drives the router and the map reference
// through the same random DIOs, transmission outcomes and maintenance
// ticks. Ranks, path costs and signal strengths come from small sets, so
// equal ranks and cost ties are common, and time runs past the neighbour
// timeout, so stale entries expire. Every step must yield the same parent,
// rank, path ETX and potential children.
func TestReselectMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ranks := []uint16{1, 4, 5, 8, 9, 12, RankInfinity}
	costs := []float64{0, 1, 1.5, 2, 3}
	signals := []float64{-55, -60, -75, -90, -95}
	for trial := 0; trial < 300; trial++ {
		const timeout = 400
		scale := 1 + 3*rng.Intn(2)
		got := NewRouter(30, false, timeout, scale)
		ref := &mapRouter{r: NewRouter(30, false, timeout, scale), neighbors: map[topology.NodeID]neighborEntry{}}
		asn := sim.ASN(0)
		for step := 0; step < 200; step++ {
			asn += sim.ASN(rng.Intn(40))
			var changed, want bool
			switch op := rng.Intn(10); {
			case op < 6:
				from := topology.NodeID(1 + rng.Intn(24))
				d := DIO{Rank: ranks[rng.Intn(len(ranks))], PathETX: costs[rng.Intn(len(costs))]}
				rss := signals[rng.Intn(len(signals))]
				changed, want = got.OnDIO(asn, from, d, rss), ref.onDIO(asn, from, d, rss)
			case op < 9:
				to := got.parent
				if to == 0 || rng.Intn(3) == 0 {
					to = topology.NodeID(1 + rng.Intn(24))
				}
				acked := rng.Intn(3) == 0
				changed, want = got.OnTxResult(asn, to, acked), ref.onTxResult(asn, to, acked)
			default:
				changed, want = got.Maintain(asn), ref.maintain(asn)
			}
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch w := ref.r; {
			case changed != want:
				t.Fatalf("%s: changed %v, map reference %v", where, changed, want)
			case got.parent != w.parent || got.rank != w.rank:
				t.Fatalf("%s: parent %d rank %d, map reference %d rank %d", where, got.parent, got.rank, w.parent, w.rank)
			case math.Float64bits(got.pathETX) != math.Float64bits(w.pathETX):
				t.Fatalf("%s: path ETX %v, map reference %v", where, got.pathETX, w.pathETX)
			case got.parentChanges != w.parentChanges || got.firstParentAt != w.firstParentAt:
				t.Fatalf("%s: %d changes from %d, map reference %d from %d", where,
					got.parentChanges, got.firstParentAt, w.parentChanges, w.firstParentAt)
			}
			if g, w := fmt.Sprint(got.PotentialChildren()), fmt.Sprint(ref.potentialChildren()); g != w {
				t.Fatalf("%s: potential children %s, map reference %s", where, g, w)
			}
		}
	}
}
