package link

import (
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// LinkState is one neighbour's estimator entry as plain old data.
type LinkState struct {
	Node           topology.NodeID
	ETX            float64
	RSSAvg         float64
	ConsecFails    int
	TxSeen         bool
	ResurrectCount int
}

// CaptureState returns every neighbour entry in ascending node ID, the
// table's own order. The reaction profile is construction-time
// configuration and not part of the state.
func (e *Estimator) CaptureState() []LinkState {
	if e.links.Len() == 0 {
		return nil
	}
	out := make([]LinkState, 0, e.links.Len())
	for _, l := range e.links.Entries() {
		s := l.Val
		out = append(out, LinkState{Node: l.ID, ETX: s.etx, RSSAvg: s.rssAvg,
			ConsecFails: s.consecFails, TxSeen: s.txSeen, ResurrectCount: s.resurrectCount})
	}
	return out
}

// RestoreState replaces the neighbour table with the captured entries.
func (e *Estimator) RestoreState(entries []LinkState) {
	e.links = Table[linkState]{}
	e.links.Grow(len(entries))
	for _, s := range entries {
		e.links.Put(s.Node, linkState{etx: s.ETX, rssAvg: s.RSSAvg,
			consecFails: s.ConsecFails, txSeen: s.TxSeen, resurrectCount: s.ResurrectCount})
	}
}

// CodeStates walks a captured neighbour table in its snapshot wire form.
// The narrowest entry is 20 bytes: two floats and four one-byte fields.
func CodeStates(c *wire.Coder, ls *[]LinkState) {
	wire.Slice(c, ls, 20, func(l *LinkState) {
		wire.Uvarint(c, &l.Node)
		c.Float(&l.ETX)
		c.Float(&l.RSSAvg)
		c.Int(&l.ConsecFails)
		c.Bool(&l.TxSeen)
		c.Int(&l.ResurrectCount)
	})
}
