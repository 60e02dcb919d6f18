// Package link implements per-neighbour link quality estimation as the
// paper specifies: the initial ETX of a link is derived from the received
// signal strength of the first frames heard from the neighbour (Section V:
// RSS >= -60 dBm maps to ETX 1, RSS <= -90 dBm maps to ETX 3, linear in
// between), and the estimate is then driven by transmission outcomes,
// penalised whenever a transmission error occurs (no ACK).
package link

import (
	"math"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// RSS thresholds for the initial ETX mapping (paper Section V).
const (
	RSSMinDBm = -90.0
	RSSMaxDBm = -60.0

	initialETXAtMax = 1.0
	initialETXAtMin = 3.0
)

// Profile tunes how the estimator reacts to transmission outcomes.
// Different stacks detect failures at very different speeds: the DiGS
// paper prescribes aggressive ETX penalties on transmission errors, while
// the Contiki RPL link statistics the Orchestra baseline builds on react
// far more slowly — a contrast the paper's repair-time measurements hinge
// on.
type Profile struct {
	// AlphaOK and AlphaFail are the EWMA weights for acknowledged and
	// unacknowledged transmissions.
	AlphaOK   float64
	AlphaFail float64
	// FailSample is the base ETX sample for a failed transmission.
	FailSample float64
	// Escalate multiplies the fail sample by the consecutive-failure
	// count, pricing a bad link out of routing within a few attempts.
	Escalate bool
	// DeadThreshold is the number of consecutive unacknowledged
	// transmissions after which the link is declared dead (ETX pinned to
	// unreachable).
	DeadThreshold int
	// ResurrectObservations is how many frames must be decoded from a
	// dead neighbour before its link is considered alive again. RSS is
	// only measurable on decoded frames, so a nearly-dead link
	// occasionally decodes one and would otherwise look usable (the
	// RSS-to-ETX bootstrap caps at 3).
	ResurrectObservations int
	// Seed maps a smoothed RSS to the initial (pre-transmission) ETX.
	Seed func(rssDBm float64) float64
}

// AggressiveProfile is the DiGS behaviour: a failed parent is priced out
// within a handful of attempts (the paper's "ETX value gets penalized if a
// transmission error occurs").
func AggressiveProfile() Profile {
	return Profile{
		AlphaOK:               0.10,
		AlphaFail:             0.12,
		FailSample:            6.0,
		Escalate:              true,
		DeadThreshold:         8,
		ResurrectObservations: 10,
		Seed:                  InitialETX, // the paper's RSS mapping
	}
}

// ConservativeProfile models Contiki-class link statistics: smooth,
// non-escalating penalties and a much longer dead-link horizon, which is
// why tree routing repairs slowly when a router dies.
func ConservativeProfile() Profile {
	return Profile{
		AlphaOK:               0.10,
		AlphaFail:             0.12,
		FailSample:            6.0,
		Escalate:              false,
		DeadThreshold:         24,
		ResurrectObservations: 10,
		// Seed from the physical PRR curve: a slow estimator cannot
		// afford an optimistic bootstrap (it would take minutes to back
		// out of a near-dead link the DiGS mapping caps at ETX 3).
		Seed: func(rssDBm float64) float64 {
			etx := phy.LinkETX(phy.PRR(rssDBm))
			if etx < 1 {
				return 1
			}
			return etx
		},
	}
}

// InitialETX maps a received signal strength to the paper's initial ETX.
func InitialETX(rssDBm float64) float64 {
	switch {
	case rssDBm >= RSSMaxDBm:
		return initialETXAtMax
	case rssDBm <= RSSMinDBm:
		return initialETXAtMin
	default:
		frac := (RSSMaxDBm - rssDBm) / (RSSMaxDBm - RSSMinDBm)
		return initialETXAtMax + frac*(initialETXAtMin-initialETXAtMax)
	}
}

// rssAlpha smooths the per-neighbour RSS average that seeds the initial
// ETX: a single lucky fading spike on a marginal link must not make it
// look like a good route.
const rssAlpha = 0.3

type linkState struct {
	etx            float64
	rssAvg         float64
	consecFails    int
	txSeen         bool
	resurrectCount int
}

// Estimator tracks the ETX of every neighbour a node has heard from.
// The zero value is not usable; create one with NewEstimator.
type Estimator struct {
	links   Table[linkState]
	profile Profile
}

// NewEstimator returns an empty estimator with the aggressive (DiGS)
// profile.
func NewEstimator() *Estimator {
	return NewEstimatorWithProfile(AggressiveProfile())
}

// NewEstimatorWithProfile returns an empty estimator with the given
// reaction profile.
func NewEstimatorWithProfile(p Profile) *Estimator {
	return &Estimator{profile: p}
}

// Observe records a frame heard from the neighbour at the given RSS.
// Until the first unicast transmission outcome, the ETX tracks a smoothed
// RSS average through the paper's bootstrap mapping; after that, the
// transmission history is authoritative. Hearing from a neighbour that was
// declared dead resurrects it pessimistically (the link may only be
// intermittently alive).
func (e *Estimator) Observe(n topology.NodeID, rssDBm float64) {
	s := e.links.Ptr(n)
	switch {
	case s == nil:
		e.links.Put(n, linkState{etx: e.profile.Seed(rssDBm), rssAvg: rssDBm})
	case s.etx >= phy.ETXUnreachable:
		s.rssAvg = (1-rssAlpha)*s.rssAvg + rssAlpha*rssDBm
		s.resurrectCount++
		if s.resurrectCount >= e.profile.ResurrectObservations {
			s.etx = math.Max(e.profile.Seed(s.rssAvg), e.profile.FailSample/2)
			s.consecFails = 0
			s.resurrectCount = 0
			// Keep the pessimistic seed until real transmissions speak:
			// this link has failed us before.
			s.txSeen = true
		}
	default:
		s.rssAvg = (1-rssAlpha)*s.rssAvg + rssAlpha*rssDBm
		if !s.txSeen {
			s.etx = e.profile.Seed(s.rssAvg)
		}
	}
}

// TxResult folds one unicast transmission outcome into the neighbour's
// estimate. Unknown neighbours are ignored (we never transmit to a
// neighbour we have not first heard from). DeadThreshold consecutive
// failures pin the estimate to unreachable.
func (e *Estimator) TxResult(n topology.NodeID, acked bool) {
	s := e.links.Ptr(n)
	if s == nil {
		return
	}
	s.txSeen = true
	sample, alpha := 1.0, e.profile.AlphaOK
	if acked {
		s.consecFails = 0
	} else {
		s.consecFails++
		sample, alpha = e.profile.FailSample, e.profile.AlphaFail
		if e.profile.Escalate {
			sample *= float64(s.consecFails)
		}
		if sample > phy.ETXUnreachable {
			sample = phy.ETXUnreachable
		}
	}
	s.etx = (1-alpha)*s.etx + alpha*sample
	if s.consecFails >= e.profile.DeadThreshold || s.etx > phy.ETXUnreachable {
		s.etx = phy.ETXUnreachable
	}
	if s.etx < 1 {
		s.etx = 1
	}
}

// ETX returns the neighbour's current estimate. Neighbours never heard
// from report phy.ETXUnreachable.
func (e *Estimator) ETX(n topology.NodeID) float64 {
	if s, ok := e.links.Get(n); ok {
		return s.etx
	}
	return phy.ETXUnreachable
}

// Cursor answers ETX for neighbours asked in ascending ID by walking the
// estimator's table alongside, one merge step per ask instead of a binary
// search. It is valid until the estimator next changes.
type Cursor struct {
	links []Entry[linkState]
	i     int
}

// Cursor returns a cursor at the estimator's lowest ID.
func (e *Estimator) Cursor() Cursor { return Cursor{links: e.links.Entries()} }

// ETX is Estimator.ETX for an ID no lower than the one asked before.
func (c *Cursor) ETX(n topology.NodeID) float64 {
	for c.i < len(c.links) && c.links[c.i].ID < n {
		c.i++
	}
	if c.i < len(c.links) && c.links[c.i].ID == n {
		return c.links[c.i].Val.etx
	}
	return phy.ETXUnreachable
}

// Known reports whether the neighbour has been heard from.
func (e *Estimator) Known(n topology.NodeID) bool {
	_, ok := e.links.Get(n)
	return ok
}

// Forget drops a neighbour (used when a parent is declared dead).
func (e *Estimator) Forget(n topology.NodeID) {
	e.links.Delete(n)
}

// Neighbors returns the IDs of all known neighbours, in ascending order.
func (e *Estimator) Neighbors() []topology.NodeID {
	out := make([]topology.NodeID, 0, e.links.Len())
	for _, l := range e.links.Entries() {
		out = append(out, l.ID)
	}
	return out
}
