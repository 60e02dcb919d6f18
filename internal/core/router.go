package core

import (
	"math"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// parentSwitchMargin is the accumulated-ETX improvement a challenger needs
// to displace the incumbent best parent (route-flap damping).
const parentSwitchMargin = 1.25

// neighborEntry caches the last advertisement heard from a neighbour.
type neighborEntry struct {
	rank      uint16
	etxw      float64
	lastHeard sim.ASN
}

// childEntry tracks a downstream node that selected us as a parent.
type childEntry struct {
	role      ParentRole
	lastHeard sim.ASN
}

// Router holds one node's DiGS graph-routing state and implements
// Algorithm 1: parents are re-evaluated from the neighbour table whenever
// an advertisement arrives or a transmission outcome moves a link's ETX.
type Router struct {
	id   topology.NodeID
	isAP bool

	rank uint16
	etxw float64

	best       topology.NodeID // 0 when none
	second     topology.NodeID // 0 when none
	etxaBest   float64
	etxaSecond float64

	est       *link.Estimator
	neighbors link.Table[neighborEntry]
	children  link.Table[childEntry]

	neighborTimeout sim.ASN
	childTimeout    sim.ASN

	// rankScale is the RPL MinHopRankIncrease analogue: the rank step per
	// hop is max(1, round(linkETX * rankScale)). The paper's exposition
	// uses +1 per hop (scale such that a perfect link adds 1); the RPL
	// implementations DiGS builds on scale rank by link cost, which gives
	// the fine-grained strata that make backup parents widely available.
	rankScale int

	// firstParentAt records when the node first selected a best parent
	// (the paper's Figure 13 joining-time metric).
	firstParentAt sim.ASN
	hasParentedAt bool

	// parentChanges counts best/second reselections (control-plane churn).
	parentChanges int64

	childVersion int64

	// OnRouteChange, when set, is invoked when a reselection leaves the
	// router with a best parent and a different best/second pair. Losing
	// every parent is not reported here (only OnJoinedChange fires). The
	// telemetry subsystem uses it to attribute loss windows to route churn.
	OnRouteChange func(asn sim.ASN, best, second topology.NodeID)
	// OnJoinedChange, when set, is invoked when the router gains or
	// loses its best parent, so Joined may have flipped (Reset and
	// RestoreState excepted).
	OnJoinedChange func()
}

// NewRouter creates the routing state for one node. Access points are
// graph roots: rank 1, ETXw 0 (Algorithm 1 initialisation). rankScale is
// the MinHopRankIncrease analogue: 1 reproduces the paper's +1-per-hop
// example ranks, larger values give finer strata.
func NewRouter(id topology.NodeID, isAP bool, neighborTimeout, childTimeout sim.ASN, rankScale int) *Router {
	if rankScale < 1 {
		rankScale = 1
	}
	r := &Router{
		id:              id,
		isAP:            isAP,
		rank:            RankInfinity,
		etxw:            math.Inf(1),
		est:             link.NewEstimator(),
		neighborTimeout: neighborTimeout,
		childTimeout:    childTimeout,
		rankScale:       rankScale,
	}
	if isAP {
		r.rank = 1
		r.etxw = 0
	}
	return r
}

// rankIncrease is the rank step for a hop over a link with the given ETX.
func (r *Router) rankIncrease(linkETX float64) uint16 {
	inc := int(linkETX*float64(r.rankScale) + 0.5)
	if inc < 1 {
		inc = 1
	}
	if r.rankScale > 1 && inc < r.rankScale {
		inc = r.rankScale
	}
	return uint16(inc)
}

// Rank returns the node's current rank (RankInfinity before joining).
func (r *Router) Rank() uint16 { return r.rank }

// ETXw returns the node's weighted ETX (Eq. 1).
func (r *Router) ETXw() float64 { return r.etxw }

// Parents returns the best and second-best parents (0 when unset).
func (r *Router) Parents() (best, second topology.NodeID) { return r.best, r.second }

// Joined reports whether the node has a best parent (or is an AP).
func (r *Router) Joined() bool { return r.isAP || r.best != 0 }

// Neighbors returns the current neighbor-table size.
func (r *Router) Neighbors() int { return r.neighbors.Len() }

// FirstParentAt returns when the node first acquired a best parent.
func (r *Router) FirstParentAt() (sim.ASN, bool) { return r.firstParentAt, r.hasParentedAt }

// ParentChanges returns the number of best/second parent reselections.
func (r *Router) ParentChanges() int64 { return r.parentChanges }

// Children returns the IDs of current children and the role this node
// plays for each.
func (r *Router) Children() map[topology.NodeID]ParentRole {
	out := make(map[topology.NodeID]ParentRole, r.children.Len())
	for _, c := range r.children.Entries() {
		out[c.ID] = c.Val.role
	}
	return out
}

// Advertisement returns the join-in payload this node currently
// advertises, and whether it should advertise at all (only joined nodes
// broadcast join-in messages).
func (r *Router) Advertisement() (JoinIn, bool) {
	if !r.Joined() {
		return JoinIn{}, false
	}
	etxw := r.etxw
	if math.IsInf(etxw, 1) {
		return JoinIn{}, false
	}
	return JoinIn{Rank: r.rank, ETXw: etxw}, true
}

// OnJoinIn folds a received join-in into the neighbour table and
// re-evaluates parents. It returns true when the best or second-best
// parent changed (the caller resets Trickle and emits joined-callbacks).
func (r *Router) OnJoinIn(asn sim.ASN, from topology.NodeID, j JoinIn, rssiDBm float64) bool {
	r.est.Observe(from, rssiDBm)
	r.neighbors.Put(from, neighborEntry{rank: j.Rank, etxw: j.ETXw, lastHeard: asn})
	if r.isAP {
		return false
	}
	return r.reselect(asn)
}

// OnChildCallback records a joined-callback from a child.
func (r *Router) OnChildCallback(asn sim.ASN, from topology.NodeID, cb JoinedCallback) {
	if old, ok := r.children.Get(from); !ok || old.role != cb.Role {
		r.childVersion++
	}
	r.children.Put(from, childEntry{role: cb.Role, lastHeard: asn})
}

// ChildVersion increments whenever the child set or roles change; schedule
// caches key on it.
func (r *Router) ChildVersion() int64 { return r.childVersion }

// RefreshChild bumps a child's liveness on any traffic from it.
func (r *Router) RefreshChild(asn sim.ASN, from topology.NodeID) {
	if c := r.children.Ptr(from); c != nil {
		c.lastHeard = asn
	}
}

// Observe feeds link-quality information from any received frame.
func (r *Router) Observe(from topology.NodeID, rssiDBm float64) {
	r.est.Observe(from, rssiDBm)
}

// LinkETX exposes the current link estimate towards a neighbour.
func (r *Router) LinkETX(n topology.NodeID) float64 {
	return r.est.ETX(n)
}

// OnTxResult folds a unicast outcome into the link estimator and, on
// failure, re-evaluates parents (the paper penalises ETX on transmission
// errors, which is what eventually routes around degraded links). It
// returns true when parents changed.
func (r *Router) OnTxResult(asn sim.ASN, to topology.NodeID, acked bool) bool {
	r.est.TxResult(to, acked)
	if r.isAP || acked {
		return false
	}
	return r.reselect(asn)
}

// Maintain expires stale neighbours and children; call it periodically.
// It returns true when parents changed as a result.
func (r *Router) Maintain(asn sim.ASN) bool {
	for i := r.neighbors.Len() - 1; i >= 0; i-- {
		if n := r.neighbors.At(i); asn-n.Val.lastHeard > r.neighborTimeout {
			r.neighbors.DeleteAt(i)
			r.est.Forget(n.ID)
		}
	}
	for i := r.children.Len() - 1; i >= 0; i-- {
		if asn-r.children.At(i).Val.lastHeard > r.childTimeout {
			r.children.DeleteAt(i)
			r.childVersion++
		}
	}
	if r.isAP {
		return false
	}
	return r.reselect(asn)
}

// accETX returns the accumulated ETX to the access points through a
// neighbour: link ETX plus the neighbour's advertised weighted ETX
// (Table I: ETXa(n, i) = ETX(n, i) + ETXw(i)).
func (r *Router) accETX(n topology.NodeID, e neighborEntry) float64 {
	return accumulated(r.est.ETX(n), e)
}

// accumulated is accETX given the link's ETX.
func accumulated(l float64, e neighborEntry) float64 {
	if l >= phy.ETXUnreachable {
		return math.Inf(1)
	}
	return l + e.etxw
}

// reselect recomputes best and second-best parents from the neighbour
// table, following Algorithm 1's selection rules:
//
//   - the best parent minimises accumulated ETX;
//   - rank becomes the best parent's rank + 1;
//   - the second-best parent minimises accumulated ETX among remaining
//     neighbours whose rank is strictly smaller than the node's own rank
//     (the no-same-rank-links rule that keeps the graph loop-free);
//   - ETXw follows Eq. (1) with the weights of Eqs. (2) and (3).
func (r *Router) reselect(asn sim.ASN) bool {
	oldBest, oldSecond := r.best, r.second

	// Both walks go through the neighbour table in ascending ID, so each
	// reads the ETX estimator alongside with a cursor.
	best := topology.NodeID(0)
	bestETXa := math.Inf(1)
	est := r.est.Cursor()
	for _, n := range r.neighbors.Entries() {
		id, e := n.ID, n.Val
		if e.rank >= RankInfinity {
			continue
		}
		// The no-same-rank-links rule (Figure 6): routing links must go
		// strictly towards the access points. A detached node (rank
		// infinity) may adopt anyone.
		if r.rank < RankInfinity && e.rank >= r.rank {
			continue
		}
		// Equal costs go to the lower node ID. The table walks in ascending
		// ID, so the first of them is kept; the rule is spelled out so that
		// the choice is a property of the table's contents, not of the walk.
		if a := accumulated(est.ETX(id), e); a < bestETXa || (a == bestETXa && best != 0 && id < best) {
			best, bestETXa = id, a
		}
	}

	// Hysteresis: keep the incumbent best parent unless the challenger
	// improves on it decisively. Without this, single lost frames on
	// healthy links flap the primary route (and with it the children's
	// listening schedules).
	if oldBest != 0 && best != oldBest {
		if e, ok := r.neighbors.Get(oldBest); ok && e.rank < RankInfinity && e.rank < r.rank {
			if a := r.accETX(oldBest, e); !math.IsInf(a, 1) && bestETXa > a-parentSwitchMargin {
				best, bestETXa = oldBest, a
			}
		}
	}

	if best == 0 {
		r.best, r.second = 0, 0
		r.rank = RankInfinity
		r.etxw = math.Inf(1)
		r.etxaBest, r.etxaSecond = math.Inf(1), math.Inf(1)
		if oldBest != 0 && r.OnJoinedChange != nil {
			r.OnJoinedChange()
		}
		return oldBest != 0 || oldSecond != 0
	}

	parent, _ := r.neighbors.Get(best)
	rank := parent.rank + r.rankIncrease(r.est.ETX(best))
	if rank < parent.rank || rank >= RankInfinity {
		rank = RankInfinity - 1 // saturate, never wrap
	}
	second := topology.NodeID(0)
	secondETXa := math.Inf(1)
	est = r.est.Cursor()
	for _, n := range r.neighbors.Entries() {
		id, e := n.ID, n.Val
		if id == best || e.rank >= RankInfinity {
			continue
		}
		if uint16(e.rank) >= rank {
			continue // loop avoidance: parents must be strictly closer
		}
		if a := accumulated(est.ETX(id), e); a < secondETXa || (a == secondETXa && second != 0 && id < second) {
			second, secondETXa = id, a
		}
	}
	// Hysteresis for the backup too: every switch restarts the
	// joined-callback confirmation with the new parent, so flapping the
	// backup role costs real attempt-3 coverage.
	if oldSecond != 0 && second != oldSecond && oldSecond != best {
		if e, ok := r.neighbors.Get(oldSecond); ok && e.rank < RankInfinity && e.rank < rank {
			if a := r.accETX(oldSecond, e); !math.IsInf(a, 1) && secondETXa > a-parentSwitchMargin {
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
	if oldBest == 0 && r.OnJoinedChange != nil {
		r.OnJoinedChange()
	}
	changed := best != oldBest || second != oldSecond
	if changed {
		r.parentChanges++
		if r.OnRouteChange != nil {
			r.OnRouteChange(asn, best, second)
		}
	}
	return changed
}

// weightedETX computes Eq. (1): the advertised cost blends the primary and
// backup accumulated ETX by the probability that the first two transmission
// attempts (primary route) succeed versus fail.
func weightedETX(etxBestLink, etxaBest, etxaSecond float64) float64 {
	if math.IsInf(etxaBest, 1) {
		return math.Inf(1)
	}
	if math.IsInf(etxaSecond, 1) {
		// No backup parent: the primary path carries all the weight.
		return etxaBest
	}
	fail := 1 - 1/etxBestLink
	w2 := fail * fail // Eq. (3): first two attempts fail
	w1 := 1 - w2      // Eq. (2)
	return w1*etxaBest + w2*etxaSecond
}
