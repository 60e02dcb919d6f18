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

// AppendTo writes the state in its snapshot wire form.
func (st State) AppendTo(w *wire.Writer) {
	w.I64(st.Interval)
	w.I64(st.IntervalStart)
	w.I64(st.FireAt)
	w.Int(st.Counter)
	w.Bool(st.Started)
}

// ReadState decodes what AppendTo wrote.
func ReadState(r *wire.Reader) State {
	var st State
	st.Interval = r.I64()
	st.IntervalStart = r.I64()
	st.FireAt = r.I64()
	st.Counter = r.Int()
	st.Started = r.Bool()
	return st
}
