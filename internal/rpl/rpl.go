// Package rpl implements the tree-routing baseline the paper compares
// against: RPL (RFC 6550) specialised for upward collection traffic. Each
// node keeps a single preferred parent — the defining difference from DiGS
// graph routing — chosen by minimum accumulated ETX over DIO
// advertisements, with Trickle-gated DIOs and DIS solicitation. Router is
// the routing state alone; Node is the whole RPL-over-TSCH control plane
// around it, which the orchestra and adaptive stacks embed.
package rpl

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// RankInfinity marks a node outside the DODAG.
const RankInfinity = math.MaxUint16

// parentSwitchMargin is the path-ETX improvement needed to displace the
// preferred parent. Contiki's RPL uses a wide switch threshold (~1.5 ETX),
// one of the reasons tree routing is slow to abandon a failed parent.
const parentSwitchMargin = 1.5

// DIO is the advertisement payload: the sender's rank and its path ETX to
// the root.
type DIO struct {
	Rank    uint16
	PathETX float64
}

const dioSize = 2 + 4

// Marshal encodes the DIO payload.
func (d DIO) Marshal() []byte {
	buf := make([]byte, dioSize)
	binary.BigEndian.PutUint16(buf[0:2], d.Rank)
	binary.BigEndian.PutUint32(buf[2:6], math.Float32bits(float32(d.PathETX)))
	return buf
}

// UnmarshalDIO decodes a DIO payload.
func UnmarshalDIO(b []byte) (DIO, error) {
	if len(b) != dioSize {
		return DIO{}, fmt.Errorf("dio payload: %d bytes, want %d", len(b), dioSize)
	}
	p := float64(math.Float32frombits(binary.BigEndian.Uint32(b[2:6])))
	if math.IsNaN(p) || p < 0 {
		return DIO{}, fmt.Errorf("dio payload: invalid path ETX %v", p)
	}
	return DIO{Rank: binary.BigEndian.Uint16(b[0:2]), PathETX: p}, nil
}

type neighborEntry struct {
	rank      uint16
	pathETX   float64
	lastHeard sim.ASN
}

// Router is one node's RPL routing state: a neighbour table and a single
// preferred parent.
type Router struct {
	id     topology.NodeID
	isRoot bool

	rank    uint16
	pathETX float64
	parent  topology.NodeID

	est       *link.Estimator
	neighbors link.Table[neighborEntry]

	neighborTimeout sim.ASN

	// rankScale is RPL's MinHopRankIncrease: the per-hop rank step is the
	// link ETX scaled by this factor (minimum one).
	rankScale int

	firstParentAt sim.ASN
	hasParentedAt bool
	parentChanges int64

	// OnParentChange, when set, is invoked whenever the preferred parent
	// switches to another neighbour. Losing the parent without a
	// replacement is not reported here (only OnJoinedChange fires). The
	// telemetry subsystem uses it to correlate loss windows with route
	// churn. RPL keeps a single parent: backup is always 0 (the signature
	// is the stack contract's route hook).
	OnParentChange func(asn sim.ASN, parent, backup topology.NodeID)
	// OnJoinedChange, when set, is invoked when the router gains or
	// loses its parent, so Joined may have flipped (Reset and RestoreState
	// excepted).
	OnJoinedChange func()
}

// NewRouter creates RPL state for a node. Roots (access points) have rank
// 1 and path ETX 0. rankScale is MinHopRankIncrease (minimum 1).
func NewRouter(id topology.NodeID, isRoot bool, neighborTimeout sim.ASN, rankScale int) *Router {
	if rankScale < 1 {
		rankScale = 1
	}
	r := &Router{
		id:      id,
		isRoot:  isRoot,
		rank:    RankInfinity,
		pathETX: math.Inf(1),
		// Contiki-class link statistics: the tree-routing baseline reacts
		// to failures much more slowly than DiGS's prescribed penalties,
		// which is the root of its long repair times (paper Section IV).
		est:             link.NewEstimatorWithProfile(link.ConservativeProfile()),
		neighborTimeout: neighborTimeout,
		rankScale:       rankScale,
	}
	if isRoot {
		r.rank = 1
		r.pathETX = 0
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

// Rank returns the node's rank.
func (r *Router) Rank() uint16 { return r.rank }

// Parent returns the preferred parent (0 when none).
func (r *Router) Parent() topology.NodeID { return r.parent }

// Joined reports whether the node is in the DODAG.
func (r *Router) Joined() bool { return r.isRoot || r.parent != 0 }

// Neighbors returns the current neighbor-table size.
func (r *Router) Neighbors() int { return r.neighbors.Len() }

// FirstParentAt returns when the node first acquired a parent.
func (r *Router) FirstParentAt() (sim.ASN, bool) { return r.firstParentAt, r.hasParentedAt }

// ParentChanges returns how many times the preferred parent switched.
func (r *Router) ParentChanges() int64 { return r.parentChanges }

// PotentialChildren returns the neighbours advertising a rank above this
// node's own — the set that may route through it — in ascending ID, the
// order in which Orchestra's sender-based schedule places their cells.
func (r *Router) PotentialChildren() []topology.NodeID {
	if r.rank >= RankInfinity {
		return nil
	}
	var out []topology.NodeID
	for _, e := range r.neighbors.Entries() {
		if e.Val.rank > r.rank && e.Val.rank < RankInfinity {
			out = append(out, e.ID)
		}
	}
	return out
}

// Advertisement returns the DIO this node currently sends, if any.
func (r *Router) Advertisement() (DIO, bool) {
	if !r.Joined() || math.IsInf(r.pathETX, 1) {
		return DIO{}, false
	}
	return DIO{Rank: r.rank, PathETX: r.pathETX}, true
}

// Observe feeds link information from any received frame.
func (r *Router) Observe(from topology.NodeID, rssiDBm float64) {
	r.est.Observe(from, rssiDBm)
}

// OnDIO folds an advertisement into the neighbour table and re-evaluates
// the preferred parent. It returns true when the parent changed.
func (r *Router) OnDIO(asn sim.ASN, from topology.NodeID, d DIO, rssiDBm float64) bool {
	r.est.Observe(from, rssiDBm)
	r.neighbors.Put(from, neighborEntry{rank: d.Rank, pathETX: d.PathETX, lastHeard: asn})
	if r.isRoot {
		return false
	}
	return r.reselect(asn)
}

// OnTxResult folds a unicast outcome into the estimator; failures trigger
// re-evaluation. Returns true when the parent changed.
func (r *Router) OnTxResult(asn sim.ASN, to topology.NodeID, acked bool) bool {
	r.est.TxResult(to, acked)
	if r.isRoot || acked {
		return false
	}
	return r.reselect(asn)
}

// Maintain expires stale neighbours; returns true when the parent changed.
func (r *Router) Maintain(asn sim.ASN) bool {
	for i := r.neighbors.Len() - 1; i >= 0; i-- {
		if n := r.neighbors.At(i); asn-n.Val.lastHeard > r.neighborTimeout {
			r.neighbors.DeleteAt(i)
			r.est.Forget(n.ID)
		}
	}
	if r.isRoot {
		return false
	}
	return r.reselect(asn)
}

func (r *Router) cost(n topology.NodeID, e neighborEntry) float64 {
	l := r.est.ETX(n)
	if l >= phy.ETXUnreachable {
		return math.Inf(1)
	}
	return l + e.pathETX
}

// reselect picks the neighbour minimising accumulated path ETX, with
// switch hysteresis; rank loops are avoided by requiring the parent's rank
// to be below the node's own previous-parent-derived rank only weakly (RPL
// allows greediness; persistent loops are broken by the max-rank check).
func (r *Router) reselect(asn sim.ASN) bool {
	oldParent := r.parent

	best := topology.NodeID(0)
	bestCost := math.Inf(1)
	for _, n := range r.neighbors.Entries() {
		id, e := n.ID, n.Val
		if e.rank >= RankInfinity {
			continue
		}
		// Loop avoidance: never route through a neighbour that is not
		// strictly closer to the root than we are (unless detached).
		if r.rank < RankInfinity && e.rank >= r.rank {
			continue
		}
		// Equal costs go to the lower node ID. The table walks in ascending
		// ID, so the first of them is kept; the rule is spelled out so that
		// the choice is a property of the table's contents, not of the walk.
		if c := r.cost(id, e); c < bestCost || (c == bestCost && best != 0 && id < best) {
			best, bestCost = id, c
		}
	}

	if oldParent != 0 && best != oldParent {
		if e, ok := r.neighbors.Get(oldParent); ok && e.rank < RankInfinity && e.rank < r.rank {
			if c := r.cost(oldParent, e); !math.IsInf(c, 1) && bestCost > c-parentSwitchMargin {
				best, bestCost = oldParent, c
			}
		}
	}

	if best == 0 {
		r.parent = 0
		r.rank = RankInfinity
		r.pathETX = math.Inf(1)
		if oldParent != 0 && r.OnJoinedChange != nil {
			r.OnJoinedChange()
		}
		return oldParent != 0
	}

	r.parent = best
	parent, _ := r.neighbors.Get(best)
	rank := parent.rank + r.rankIncrease(r.est.ETX(best))
	if rank < parent.rank || rank >= RankInfinity {
		rank = RankInfinity - 1 // saturate, never wrap
	}
	r.rank = rank
	r.pathETX = bestCost
	if !r.hasParentedAt {
		r.hasParentedAt = true
		r.firstParentAt = asn
	}
	if oldParent == 0 && r.OnJoinedChange != nil {
		r.OnJoinedChange()
	}
	if best != oldParent {
		r.parentChanges++
		if r.OnParentChange != nil {
			r.OnParentChange(asn, best, 0)
		}
		return true
	}
	return false
}
