package gateway

import (
	"sync"
	"time"
)

// breakerState is one of the classic three circuit-breaker states.
type breakerState int

const (
	// stateClosed: requests flow; outcomes are counted.
	stateClosed breakerState = iota
	// stateOpen: the backend is presumed down; requests are refused
	// until the cooldown elapses.
	stateOpen
	// stateHalfOpen: the cooldown elapsed; exactly one trial request is
	// admitted to decide between closing and re-opening.
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// The gateway's failure-rate trip: a failure fraction of breakerRate over
// the last breakerWindow outcomes opens a backend's breaker.
const (
	breakerWindow = 16
	breakerRate   = 0.5
)

// breakerConfig parameterises one backend's circuit breaker.
type breakerConfig struct {
	// consecFailures trips the breaker after this many errors in a row
	// (default 3).
	consecFailures int
	// window is the sliding outcome window for the failure-rate trip
	// (default breakerWindow outcomes).
	window int
	// rate trips the breaker when the windowed failure rate reaches this
	// fraction with at least window/2 outcomes recorded (default
	// breakerRate) — catches a backend that fails every other request
	// without ever producing a long consecutive run.
	rate float64
	// openFor is the cooldown before an open breaker admits its
	// half-open trial (default 2s).
	openFor time.Duration
	// now is the test seam for the cooldown clock.
	now func() time.Time
}

func (c breakerConfig) withDefaults() breakerConfig {
	if c.consecFailures <= 0 {
		c.consecFailures = 3
	}
	if c.window <= 0 {
		c.window = breakerWindow
	}
	if c.rate <= 0 {
		c.rate = breakerRate
	}
	if c.openFor <= 0 {
		c.openFor = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// breaker is a per-backend circuit breaker fed by both health probes
// and real request outcomes. allow is a gate, not a pure query: in the
// half-open state it admits exactly one trial at a time, so callers
// must report the outcome of every allowed request via success/failure.
type breaker struct {
	mu       sync.Mutex
	cfg      breakerConfig
	state    breakerState
	consec   int
	outcomes []bool // ring of recent outcomes, true = failure
	oi, on   int
	openedAt time.Time
	trial    bool // a half-open trial is in flight
	opens    int64
}

func newBreaker(cfg breakerConfig) *breaker {
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg, outcomes: make([]bool, cfg.window)}
}

// allow reports whether a request may be sent to this backend now, and
// reserves the half-open trial slot when it grants one there.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.openFor {
			return false
		}
		b.state = stateHalfOpen
		b.trial = true
		return true
	default: // half-open
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// success records a request (or probe) that reached the backend and got
// a sane answer. A half-open trial success closes the breaker with a
// clean slate; in the closed state the outcome still lands in the
// window, so a backend failing every other request trips on rate even
// though successes keep breaking its consecutive run.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trial = false
	b.consec = 0
	if b.state != stateClosed {
		b.state = stateClosed
		b.on, b.oi = 0, 0
		return
	}
	b.outcomes[b.oi] = false
	b.oi = (b.oi + 1) % b.cfg.window
	if b.on < b.cfg.window {
		b.on++
	}
}

// failure records a transport error, timeout, or 5xx. A half-open trial
// failure re-opens immediately; a closed breaker trips on a consecutive
// run or on the windowed failure rate.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trial = false
	b.consec++
	b.outcomes[b.oi] = true
	b.oi = (b.oi + 1) % b.cfg.window
	if b.on < b.cfg.window {
		b.on++
	}
	switch b.state {
	case stateHalfOpen:
		b.trip()
	case stateClosed:
		if b.consec >= b.cfg.consecFailures || b.failureRate() >= b.cfg.rate {
			b.trip()
		}
	}
}

// failureRate is the windowed failure fraction, or 0 while the sample
// is too small to judge. Callers hold b.mu.
func (b *breaker) failureRate() float64 {
	if b.on < b.cfg.window/2 {
		return 0
	}
	fails := 0
	for i := 0; i < b.on; i++ {
		if b.outcomes[i] {
			fails++
		}
	}
	return float64(fails) / float64(b.on)
}

// trip opens the breaker. Callers hold b.mu.
func (b *breaker) trip() {
	b.state = stateOpen
	b.openedAt = b.cfg.now()
	b.opens++
	b.consec = 0
}

// snapshot returns the state and trip count for the stats surface.
func (b *breaker) snapshot() (breakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
