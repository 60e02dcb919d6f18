package trickle

import "github.com/digs-net/digs/internal/wire"

// State is a timer's complete mutable state. Imin/Imax/K are
// construction-time configuration; the RNG is owned by the stack and its
// position is captured there.
type State struct {
	Interval      int64
	IntervalStart int64
	FireAt        int64
	Counter       int
	Started       bool
}

// CaptureState snapshots the timer.
func (t *Timer) CaptureState() State {
	return State{
		Interval:      t.interval,
		IntervalStart: t.intervalStart,
		FireAt:        t.fireAt,
		Counter:       t.counter,
		Started:       t.started,
	}
}

// RestoreState overlays a captured state onto a freshly built timer.
func (t *Timer) RestoreState(st State) {
	t.interval = st.Interval
	t.intervalStart = st.IntervalStart
	t.fireAt = st.FireAt
	t.counter = st.Counter
	t.started = st.Started
}

// Code walks the state in its snapshot wire form.
func (st *State) Code(c *wire.Coder) {
	c.I64(&st.Interval)
	c.I64(&st.IntervalStart)
	c.I64(&st.FireAt)
	c.Int(&st.Counter)
	c.Bool(&st.Started)
}
