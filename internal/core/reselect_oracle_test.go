package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// mapRouter is the router with its neighbour table in a map, as it was
// before the table became an ascending-ID slice: the reference the table
// must reproduce choice for choice. It owns a Router for everything but the
// neighbour table (its estimator, parents, rank and counters) and walks the
// map in Go's randomised order, so its choices rest on the ID tie-breaks
// alone.
type mapRouter struct {
	r         *Router
	neighbors map[topology.NodeID]neighborEntry
}

func (m *mapRouter) onJoinIn(asn sim.ASN, from topology.NodeID, j JoinIn, rssiDBm float64) bool {
	m.r.est.Observe(from, rssiDBm)
	m.neighbors[from] = neighborEntry{rank: j.Rank, etxw: j.ETXw, lastHeard: asn}
	if m.r.isAP {
		return false
	}
	return m.reselect(asn)
}

func (m *mapRouter) onTxResult(asn sim.ASN, to topology.NodeID, acked bool) bool {
	m.r.est.TxResult(to, acked)
	if m.r.isAP || acked {
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
	if m.r.isAP {
		return false
	}
	return m.reselect(asn)
}

func (m *mapRouter) accETX(n topology.NodeID, e neighborEntry) float64 {
	l := m.r.est.ETX(n)
	if l >= phy.ETXUnreachable {
		return math.Inf(1)
	}
	return l + e.etxw
}

// reselect is Router.reselect over the map.
func (m *mapRouter) reselect(asn sim.ASN) bool {
	r := m.r
	oldBest, oldSecond := r.best, r.second

	best := topology.NodeID(0)
	bestETXa := math.Inf(1)
	for id, e := range m.neighbors {
		if e.rank >= RankInfinity {
			continue
		}
		if r.rank < RankInfinity && e.rank >= r.rank {
			continue
		}
		if a := m.accETX(id, e); a < bestETXa || (a == bestETXa && best != 0 && id < best) {
			best, bestETXa = id, a
		}
	}
	if oldBest != 0 && best != oldBest {
		if e, ok := m.neighbors[oldBest]; ok && e.rank < RankInfinity && e.rank < r.rank {
			if a := m.accETX(oldBest, e); !math.IsInf(a, 1) && bestETXa > a-parentSwitchMargin {
				best, bestETXa = oldBest, a
			}
		}
	}
	if best == 0 {
		r.best, r.second = 0, 0
		r.rank = RankInfinity
		r.etxw = math.Inf(1)
		r.etxaBest, r.etxaSecond = math.Inf(1), math.Inf(1)
		return oldBest != 0 || oldSecond != 0
	}

	rank := m.neighbors[best].rank + r.rankIncrease(r.est.ETX(best))
	if rank < m.neighbors[best].rank || rank >= RankInfinity {
		rank = RankInfinity - 1
	}
	second := topology.NodeID(0)
	secondETXa := math.Inf(1)
	for id, e := range m.neighbors {
		if id == best || e.rank >= RankInfinity {
			continue
		}
		if uint16(e.rank) >= rank {
			continue
		}
		if a := m.accETX(id, e); a < secondETXa || (a == secondETXa && second != 0 && id < second) {
			second, secondETXa = id, a
		}
	}
	if oldSecond != 0 && second != oldSecond && oldSecond != best {
		if e, ok := m.neighbors[oldSecond]; ok && e.rank < RankInfinity && e.rank < rank {
			if a := m.accETX(oldSecond, e); !math.IsInf(a, 1) && secondETXa > a-parentSwitchMargin {
				second, secondETXa = oldSecond, a
			}
		}
	}

	r.best, r.second = best, second
	r.rank = rank
	r.etxaBest = bestETXa
	r.etxaSecond = secondETXa
	r.etxw = weightedETX(r.est.ETX(best), bestETXa, secondETXa)
	if !r.hasParentedAt {
		r.hasParentedAt = true
		r.firstParentAt = asn
	}
	changed := best != oldBest || second != oldSecond
	if changed {
		r.parentChanges++
	}
	return changed
}

// sameRouting fails unless two routers made the same choices, bit for bit.
func sameRouting(t *testing.T, where string, got, want *Router) {
	t.Helper()
	bits := math.Float64bits
	switch {
	case got.best != want.best || got.second != want.second:
		t.Fatalf("%s: parents (%d, %d), map reference (%d, %d)", where, got.best, got.second, want.best, want.second)
	case got.rank != want.rank:
		t.Fatalf("%s: rank %d, map reference %d", where, got.rank, want.rank)
	case bits(got.etxw) != bits(want.etxw) || bits(got.etxaBest) != bits(want.etxaBest) ||
		bits(got.etxaSecond) != bits(want.etxaSecond):
		t.Fatalf("%s: ETXw/ETXa (%v, %v, %v), map reference (%v, %v, %v)", where,
			got.etxw, got.etxaBest, got.etxaSecond, want.etxw, want.etxaBest, want.etxaSecond)
	case got.parentChanges != want.parentChanges || got.firstParentAt != want.firstParentAt:
		t.Fatalf("%s: %d changes from %d, map reference %d from %d", where,
			got.parentChanges, got.firstParentAt, want.parentChanges, want.firstParentAt)
	}
}

// TestReselectMatchesMapReference drives the router and the map reference
// through the same random advertisements, transmission outcomes and
// maintenance ticks. Ranks, advertised costs and signal strengths come
// from small sets, so equal ranks and accumulated-ETX ties are common, and
// time runs past the neighbour timeout, so stale entries expire. Every
// step must yield the same (best, second, rank, ETXw).
func TestReselectMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ranks := []uint16{1, 4, 5, 8, 9, 12, RankInfinity}
	costs := []float64{0, 1, 1.5, 2, 3}
	signals := []float64{-55, -60, -75, -90, -95}
	for trial := 0; trial < 300; trial++ {
		const timeout = 400
		scale := 1 + 3*rng.Intn(2)
		got := NewRouter(30, false, timeout, timeout, scale)
		ref := &mapRouter{r: NewRouter(30, false, timeout, timeout, scale), neighbors: map[topology.NodeID]neighborEntry{}}
		asn := sim.ASN(0)
		for step := 0; step < 200; step++ {
			asn += sim.ASN(rng.Intn(40))
			var changed, want bool
			switch op := rng.Intn(10); {
			case op < 6:
				from := topology.NodeID(1 + rng.Intn(24))
				j := JoinIn{Rank: ranks[rng.Intn(len(ranks))], ETXw: costs[rng.Intn(len(costs))]}
				rss := signals[rng.Intn(len(signals))]
				changed, want = got.OnJoinIn(asn, from, j, rss), ref.onJoinIn(asn, from, j, rss)
			case op < 9:
				to := got.best
				if to == 0 || rng.Intn(3) == 0 {
					to = topology.NodeID(1 + rng.Intn(24))
				}
				acked := rng.Intn(3) == 0
				changed, want = got.OnTxResult(asn, to, acked), ref.onTxResult(asn, to, acked)
			default:
				changed, want = got.Maintain(asn), ref.maintain(asn)
			}
			where := fmt.Sprintf("trial %d step %d", trial, step)
			if changed != want {
				t.Fatalf("%s: changed %v, map reference %v", where, changed, want)
			}
			sameRouting(t, where, got, ref.r)
			if got.Neighbors() != len(ref.neighbors) {
				t.Fatalf("%s: %d neighbours, map reference %d", where, got.Neighbors(), len(ref.neighbors))
			}
		}
	}
}
