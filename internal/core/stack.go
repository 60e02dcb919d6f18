package core

import (
	"fmt"
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// pendingCallback is a joined-callback waiting for a shared slot.
type pendingCallback struct {
	to    topology.NodeID
	role  ParentRole
	tries int
}

// callbackRetries bounds how often a lost joined-callback is retried
// before waiting for the next maintenance tick to try again.
const callbackRetries = 8

// Stack is one node's complete DiGS protocol instance: distributed graph
// routing plus autonomous scheduling. It implements mac.Protocol.
type Stack struct {
	id   topology.NodeID
	isAP bool
	cfg  Config

	router *Router
	sched  *scheduler
	tr     *trickle.Timer
	rng    *rand.Rand
	// rngSrc is set when the stack was built over a counting source
	// (core.Build does this); it is what makes the stack's RNG position
	// checkpointable.
	rngSrc *detrand.Source

	pending      []pendingCallback
	wantJoinIn   bool
	nextMaintain sim.ASN
	nextSolicit  sim.ASN
	synced       bool

	// A parent is confirmed once it has acknowledged our joined-callback:
	// only then does it listen in our Eq. (4) slots, so only then do we
	// send data to it. This handshake is what keeps a reselection from
	// burning transmission attempts (and link-estimator penalties) on a
	// parent that does not yet know the child.
	lastBest, lastSecond           topology.NodeID
	bestConfirmed, secondConfirmed bool

	// fallbackParent is the most recent primary parent that completed
	// the handshake. While a freshly selected parent is still
	// unconfirmed, data keeps flowing through the fallback (it still
	// lists us as a child and listens in our slots), so reselection does
	// not stall the pipe.
	fallbackParent topology.NodeID
}

var _ mac.Protocol = (*Stack)(nil)

// NewStack builds a DiGS stack for one node. The rng drives Trickle jitter
// only; give each node a distinct seed for realistic desynchronisation.
func NewStack(id topology.NodeID, isAP bool, cfg Config, rng *rand.Rand) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := trickle.NewTimer(cfg.Trickle, rng)
	if err != nil {
		return nil, fmt.Errorf("digs stack %d: %w", id, err)
	}
	router := NewRouter(id, isAP, cfg.neighborTimeoutSlots(), cfg.childTimeoutSlots(),
		cfg.RankGranularity)
	return &Stack{
		id:     id,
		isAP:   isAP,
		cfg:    cfg,
		router: router,
		sched:  newScheduler(id, isAP, cfg, router),
		tr:     tr,
		rng:    rng,
	}, nil
}

// Router exposes the routing state for experiments and tests.
func (s *Stack) Router() *Router { return s.router }

// Joined implements stack.Node: a best parent is selected (APs count).
func (s *Stack) Joined() bool { return s.router.Joined() }

// SetRouteHook implements stack.Node.
func (s *Stack) SetRouteHook(fn stack.RouteHook) { s.router.OnRouteChange = fn }

// SetJoinHook implements stack.Node.
func (s *Stack) SetJoinHook(fn func()) { s.router.OnJoinedChange = fn }

// Probe implements stack.Node.
func (s *Stack) Probe() (parent topology.NodeID, neighbors int) {
	parent, _ = s.router.Parents()
	return parent, s.router.Neighbors()
}

// Reset implements mac.Resetter: it discards every piece of learned
// routing and scheduling state — neighbour table, parents, children,
// schedule, pending handshakes — returning the stack to its
// just-constructed state. Installed callbacks (Router.OnRouteChange,
// Router.OnJoinedChange) and configuration survive, so a chaos-plan reboot
// with state loss keeps reporting route changes through the same telemetry
// chain.
func (s *Stack) Reset() {
	router := NewRouter(s.id, s.isAP, s.cfg.neighborTimeoutSlots(), s.cfg.childTimeoutSlots(),
		s.cfg.RankGranularity)
	router.OnRouteChange, router.OnJoinedChange = s.router.OnRouteChange, s.router.OnJoinedChange
	s.router = router
	s.sched = newScheduler(s.id, s.isAP, s.cfg, router)
	// NewTimer only fails on invalid config, which Validate already
	// accepted at construction.
	s.tr, _ = trickle.NewTimer(s.cfg.Trickle, s.rng)
	s.pending = nil
	s.wantJoinIn = false
	s.nextMaintain = 0
	s.nextSolicit = 0
	s.synced = false
	s.lastBest, s.lastSecond = 0, 0
	s.bestConfirmed, s.secondConfirmed = false, false
	s.fallbackParent = 0
}

// Assignment implements mac.Protocol. It also advances the Trickle timer
// (one call per slot) and latches a pending join-in until the next shared
// slot, and runs periodic routing-state maintenance.
func (s *Stack) Assignment(asn sim.ASN) mac.Assignment {
	if asn >= s.nextMaintain {
		s.nextMaintain = asn + s.cfg.maintainSlots()
		if s.router.Maintain(asn) {
			s.onParentsChanged(asn)
		}
		s.requeueUnconfirmed()
	}
	if s.tr.Fires(asn) {
		s.wantJoinIn = true
	}
	return s.sched.Assignment(asn)
}

// NextActive implements mac.Protocol: the schedule's next active slot,
// pulled earlier when one of the stack's own timers needs an exact slot —
// the Trickle timer's fire/rollover point, and the periodic maintenance
// deadline (so neighbour and parent timeouts are not checked later than
// per-slot stepping would have).
func (s *Stack) NextActive(after sim.ASN, queued bool) sim.ASN {
	w := s.sched.NextActive(after, queued)
	if s.synced {
		w = min(w, max(s.tr.NextEvent(after), after))
	}
	return min(w, max(s.nextMaintain, after))
}

// OnSynced implements mac.Protocol: the node joined the TSCH network and
// may start routing.
func (s *Stack) OnSynced(asn sim.ASN) {
	s.synced = true
	s.tr.Start(asn)
	// Give the normal join-in wave a head start before soliciting.
	s.nextSolicit = asn + 500 + sim.ASN(s.rng.Intn(500))
}

// EBPayload implements mac.Protocol: enhanced beacons carry the node's
// current advertisement (the 802.15.4e join metric), so neighbour tables
// stay fresh from the collision-free sync slotframe as well.
func (s *Stack) EBPayload() []byte {
	adv, ok := s.router.Advertisement()
	if !ok {
		return nil
	}
	return adv.Marshal()
}

// OnFrame implements mac.Protocol.
func (s *Stack) OnFrame(asn sim.ASN, f *sim.Frame, rssi float64) {
	switch f.Kind {
	case sim.KindEB:
		if j, err := UnmarshalJoinIn(f.Payload); err == nil {
			if s.router.OnJoinIn(asn, f.Src, j, rssi) {
				s.onParentsChanged(asn)
			}
			return
		}
		s.router.Observe(f.Src, rssi)
	case sim.KindJoinIn:
		j, err := UnmarshalJoinIn(f.Payload)
		if err != nil {
			return // corrupted or foreign frame: ignore
		}
		if s.router.OnJoinIn(asn, f.Src, j, rssi) {
			s.onParentsChanged(asn)
		} else {
			s.tr.Hear()
		}
	case sim.KindJoinedCallback:
		cb, err := UnmarshalJoinedCallback(f.Payload)
		if err != nil {
			return
		}
		s.router.Observe(f.Src, rssi)
		s.router.OnChildCallback(asn, f.Src, cb)
	case sim.KindSolicit:
		s.router.Observe(f.Src, rssi)
		if s.router.Joined() {
			s.tr.Reset(asn)
		}
	case sim.KindData:
		s.router.Observe(f.Src, rssi)
		s.router.RefreshChild(asn, f.Src)
	}
}

// SharedFrame implements mac.Protocol: joined-callbacks take precedence,
// then the latched Trickle join-in beacon. Join-in broadcasts apply a
// 1/2-persistent coin, emulating the CSMA/CA contention resolution real
// TSCH shared slots perform inside the slot (our medium is slot-atomic).
func (s *Stack) SharedFrame(asn sim.ASN) (*sim.Frame, bool) {
	if len(s.pending) > 0 {
		if s.rng.Intn(2) == 1 {
			return nil, false // persistence coin: listen this time
		}
		cb := s.pending[0]
		return &sim.Frame{
			Kind:    sim.KindJoinedCallback,
			Src:     s.id,
			Dst:     cb.to,
			Payload: JoinedCallback{Role: cb.role}.Marshal(),
		}, true
	}
	if s.synced && !s.router.Joined() {
		// Synchronised but still parentless after a grace period:
		// solicit advertisements instead of waiting out the neighbours'
		// Trickle intervals (the RPL DIS mechanism). Rate-limited so a
		// cold-starting network does not jam its own shared slot.
		if asn >= s.nextSolicit {
			s.nextSolicit = asn + 1000 + sim.ASN(s.rng.Intn(500))
			return &sim.Frame{Kind: sim.KindSolicit, Src: s.id, Dst: topology.Broadcast}, false
		}
		return nil, false
	}
	if !s.wantJoinIn || s.rng.Intn(2) == 1 {
		return nil, false
	}
	adv, ok := s.router.Advertisement()
	if !ok {
		s.wantJoinIn = false
		return nil, false
	}
	s.wantJoinIn = false
	return &sim.Frame{
		Kind:    sim.KindJoinIn,
		Src:     s.id,
		Dst:     topology.Broadcast,
		Payload: adv.Marshal(),
	}, false
}

// NextHop implements mac.Protocol: attempts 1..A-1 use the primary route,
// the final attempt the backup route (WirelessHART retry rule). Only
// confirmed parents receive data.
func (s *Stack) NextHop(_ sim.ASN, attempt int) (topology.NodeID, bool) {
	best, second := s.router.Parents()
	if attempt >= s.cfg.Attempts && second != 0 && s.secondConfirmed {
		return second, true
	}
	if best != 0 && s.bestConfirmed {
		return best, true
	}
	// The new best parent has not acknowledged its joined-callback yet:
	// keep the data moving through the last confirmed parent while its
	// link still works (it keeps listening for us until its child entry
	// expires).
	if s.fallbackParent != 0 && s.router.LinkETX(s.fallbackParent) < phy.ETXUnreachable {
		return s.fallbackParent, true
	}
	return 0, false
}

// OnTxResult implements mac.Protocol.
func (s *Stack) OnTxResult(asn sim.ASN, f *sim.Frame, to topology.NodeID, acked bool) {
	if f.Kind == sim.KindJoinedCallback {
		if len(s.pending) > 0 && s.pending[0].to == to {
			head := s.pending[0]
			s.pending = s.pending[1:]
			if !acked && head.tries+1 < callbackRetries {
				head.tries++
				s.pending = append(s.pending, head)
			}
		}
		if acked {
			best, second := s.router.Parents()
			if to == best {
				s.bestConfirmed = true
				s.fallbackParent = to
			}
			if to == second {
				s.secondConfirmed = true
			}
		}
	}
	if s.router.OnTxResult(asn, to, acked) {
		s.onParentsChanged(asn)
	}
}

// onParentsChanged reacts to a best/second parent change: inform the new
// parents via joined-callbacks (confirmation handshake) and reset Trickle
// so neighbours learn the new ETXw and rank quickly (Section V).
func (s *Stack) onParentsChanged(asn sim.ASN) {
	best, second := s.router.Parents()
	if best != s.lastBest {
		s.bestConfirmed = false
	}
	if second != s.lastSecond {
		s.secondConfirmed = false
	}
	s.lastBest, s.lastSecond = best, second

	s.pending = s.pending[:0]
	if best != 0 && !s.bestConfirmed {
		s.pending = append(s.pending, pendingCallback{to: best, role: RoleBestParent})
	}
	if second != 0 && !s.secondConfirmed {
		s.pending = append(s.pending, pendingCallback{to: second, role: RoleSecondParent})
	}
	if s.synced {
		s.tr.Reset(asn)
	}
}

// requeueUnconfirmed re-issues joined-callbacks for parents that have not
// acknowledged one yet (e.g. the earlier attempts all collided in the
// shared slot). Without this, an unlucky node would never complete the
// confirmation handshake and its data would stay parked.
func (s *Stack) requeueUnconfirmed() {
	has := func(to topology.NodeID, role ParentRole) bool {
		for _, p := range s.pending {
			if p.to == to && p.role == role {
				return true
			}
		}
		return false
	}
	best, second := s.router.Parents()
	if best != 0 && !s.bestConfirmed && !has(best, RoleBestParent) {
		s.pending = append(s.pending, pendingCallback{to: best, role: RoleBestParent})
	}
	if second != 0 && !s.secondConfirmed && !has(second, RoleSecondParent) {
		s.pending = append(s.pending, pendingCallback{to: second, role: RoleSecondParent})
	}
}
