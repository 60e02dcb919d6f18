package core

import (
	"fmt"
	"time"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/trickle"
)

// Config holds the DiGS stack parameters. The defaults reproduce the
// paper's evaluation setup (Section VII): slotframe lengths 557 / 47 / 151
// and the WirelessHART rule of three transmission attempts per packet, the
// first two over the primary route and the last over the backup route.
type Config struct {
	// NumAPs is the number of access points (they hold the lowest IDs).
	NumAPs int

	// SyncFrameLen, RoutingFrameLen and AppFrameLen are the three
	// slotframe periods in slots. They should be pairwise coprime so no
	// traffic class is starved by schedule combination.
	SyncFrameLen    int64
	RoutingFrameLen int64
	AppFrameLen     int64

	// Attempts is A: transmission attempts scheduled per packet per app
	// slotframe. Attempts 1..A-1 use the best parent, attempt A the
	// second-best.
	Attempts int

	// Trickle controls join-in beaconing, in slot units. A firing latches
	// a join-in that goes out in the next shared slot the node wins.
	Trickle trickle.Config

	// NeighborTimeout and ChildTimeout expire stale routing state.
	NeighborTimeout time.Duration
	ChildTimeout    time.Duration

	// MaintainEvery is how often expiry and reselection run.
	MaintainEvery time.Duration

	// RankGranularity is the MinHopRankIncrease analogue: the per-hop rank
	// step is the link ETX scaled by this factor. 1 reproduces the paper's
	// +1-per-hop exposition; the default 4 gives the finer strata RPL
	// implementations use, which widens backup-parent eligibility.
	RankGranularity int
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig(numAPs int) Config {
	return Config{
		NumAPs:          numAPs,
		SyncFrameLen:    557,
		RoutingFrameLen: 47,
		AppFrameLen:     151,
		Attempts:        3,
		// Imin 1 s, Imax ~2 min.
		Trickle:         trickle.Config{IminSlots: 100, Doublings: 7, K: 6},
		NeighborTimeout: 5 * time.Minute,
		ChildTimeout:    5 * time.Minute,
		MaintainEvery:   5 * time.Second,
		RankGranularity: 4,
	}
}

// paperEnvelopeNodes is the largest deployment the paper's fixed
// slotframe lengths are dimensioned for, counted as the paper counts it —
// in field devices, the access points excluded (the Section VII-D
// large-scale study: 150 devices and 2 access points). Up to here
// ScaledConfig returns DefaultConfig unchanged, so every
// paper-reproduction testbed keeps its exact published schedule.
const paperEnvelopeNodes = 150

// ScaledConfig returns a configuration dimensioned for a deployment of
// the given total size. The paper's evaluation parameters assume
// A*(N-N_AP) < L_app and N < L_sync; beyond a few hundred nodes both
// wrap many times over and the network degrades in three distinct ways,
// each countered by one scaling rule:
//
//   - EB collisions: with N > L_sync several nodes share each sync slot
//     and beacons collide persistently, so nodes cannot join. L_sync
//     grows to the smallest prime >= N+5, capped at 2003 — beyond the
//     cap, co-slot nodes are thousands of IDs apart, which the
//     generators' spatial ID assignment turns into physical distance
//     (spatial reuse).
//   - App-slot contention: Eq. (4) slots wrap mod L_app and co-slot
//     transmitters collide, while receivers' child-slot maps overwrite
//     each other. L_app grows to the smallest prime >= A*(N-N_AP)/appLanes,
//     so the channel lanes keep co-slot transmitters mostly separable.
//     Larger L_app trades per-hop latency (one app frame per hop) for
//     less contention.
//   - Routing-state expiry: neighbour freshness is only refreshed by
//     join-ins on the single shared routing slot, whose contention grows
//     with density; with Trickle at Imax (~2 min) a 5-minute timeout
//     expires live parents and the converged network churns. The
//     timeouts widen to 30 minutes (~15x Imax).
//
// The three slotframe lengths stay pairwise coprime (all prime, and
// distinct from RoutingFrameLen 47).
func ScaledConfig(numAPs, nodes int) Config {
	cfg := DefaultConfig(numAPs)
	if nodes-numAPs <= paperEnvelopeNodes {
		return cfg
	}
	sync := nextPrime(int64(nodes) + 5)
	if sync > 2003 {
		sync = 2003
	}
	if sync > cfg.SyncFrameLen {
		cfg.SyncFrameLen = sync
	}
	app := nextPrime(int64(cfg.Attempts*(nodes-numAPs)) / appLanes)
	if app > cfg.AppFrameLen {
		cfg.AppFrameLen = app
	}
	if cfg.AppFrameLen == cfg.SyncFrameLen {
		cfg.AppFrameLen = nextPrime(cfg.AppFrameLen + 1)
	}
	cfg.NeighborTimeout = 30 * time.Minute
	cfg.ChildTimeout = 30 * time.Minute
	return cfg
}

// nextPrime returns the smallest prime >= n (and >= 2).
func nextPrime(n int64) int64 {
	if n < 2 {
		return 2
	}
	for ; ; n++ {
		prime := true
		for d := int64(2); d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			return n
		}
	}
}

// Validate checks the configuration for structural problems.
func (c Config) Validate() error {
	if c.NumAPs < 1 {
		return fmt.Errorf("digs config: NumAPs %d, want >= 1", c.NumAPs)
	}
	if c.SyncFrameLen <= 0 || c.RoutingFrameLen <= 0 || c.AppFrameLen <= 0 {
		return fmt.Errorf("digs config: slotframe lengths must be positive (%d, %d, %d)",
			c.SyncFrameLen, c.RoutingFrameLen, c.AppFrameLen)
	}
	if c.Attempts < 1 {
		return fmt.Errorf("digs config: Attempts %d, want >= 1", c.Attempts)
	}
	if gcd(c.SyncFrameLen, c.RoutingFrameLen) != 1 ||
		gcd(c.SyncFrameLen, c.AppFrameLen) != 1 ||
		gcd(c.RoutingFrameLen, c.AppFrameLen) != 1 {
		return fmt.Errorf("digs config: slotframe lengths %d, %d, %d must be pairwise coprime",
			c.SyncFrameLen, c.RoutingFrameLen, c.AppFrameLen)
	}
	return nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (c Config) neighborTimeoutSlots() sim.ASN { return sim.SlotsFor(c.NeighborTimeout) }
func (c Config) childTimeoutSlots() sim.ASN    { return sim.SlotsFor(c.ChildTimeout) }
func (c Config) maintainSlots() sim.ASN        { return sim.SlotsFor(c.MaintainEvery) }
