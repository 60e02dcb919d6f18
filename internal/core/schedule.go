package core

import (
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Channel offsets per traffic class; distinct lanes keep a node's EB from
// colliding with another node's data slot that happens to share the ASN.
const (
	syncChannelOffset    = 0
	routingChannelOffset = 1
	appChannelOffset     = 2

	// appLanes spreads application cells over several channel offsets,
	// derived from the transmitting node's ID. When the network outgrows
	// the application slotframe (the paper's 150-node study: 3*150 slots
	// wrap mod 151), nodes sharing a wrapped slot then still use distinct
	// channels — the standard autonomous-TSCH practice (Orchestra, ALICE).
	appLanes = 12
)

// appLane returns the channel-offset lane of a node's application cells;
// both the sender and its parents derive it from the sender's ID alone.
func appLane(id topology.NodeID) uint8 {
	return appChannelOffset + uint8((int64(id)*13)%appLanes)
}

// AppTxSlot returns the application-slotframe slot offset for the given
// node's p-th transmission attempt, per the paper's Eq. (4):
//
//	s = A*(NodeID - N_AP) - A + p
//
// mapped onto 0-based slot offsets and wrapped to the slotframe length.
// Nodes whose slots exceed the slotframe length wrap around and may share
// slots; the paper's configurations avoid this (A*(N-N_AP) < L_app).
func AppTxSlot(id topology.NodeID, numAPs, attempts, p int, frameLen int64) int64 {
	s := int64(attempts)*int64(int(id)-numAPs) - int64(attempts) + int64(p)
	// s is 1-based per the paper; slot offsets are 0-based.
	return ((s-1)%frameLen + frameLen) % frameLen
}

// scheduler derives the node's combined TSCH schedule from purely local
// state: its own ID (sync and app transmit slots), its best parent (sync
// listen slot) and its children (app listen slots). No negotiation with
// neighbours ever happens, which is the paper's headline property.
//
// The three slotframes are combined by priority — the paper gives
// synchronisation traffic the highest and application traffic the lowest,
// and the highest non-sleeping frame wins (Section VI) — written out in
// Assignment, as every stack's schedule is: the slot loop asks on every
// visit, and each frame is answered with one offset comparison or one
// table lookup.
type scheduler struct {
	id     topology.NodeID
	isAP   bool
	cfg    Config
	router *Router

	// Sync-slotframe offsets: the node's own EB cell, and its best parent's,
	// re-derived when the best parent changes (-1 while it has none).
	ownSync    int64
	parent     topology.NodeID
	parentSync int64

	// cells is the application slotframe as one offset-sorted table: the
	// node's own Eq. (4) transmit cells over its children's listen cells,
	// rebuilt when the child set changes. The slot loop looks a slot up and
	// asks for the next cell far more often than the child set changes.
	// listen is the same table without the transmit cells, rebuilt with it:
	// the next cell a node with nothing queued acts in. cellsHint and
	// listenHint are the two tables' lookup hints.
	cells        mac.Cells[appCell]
	listen       mac.Cells[appCell]
	cellsVersion int64
	cellsValid   bool
	cellsHint    int
	listenHint   int
}

// appCell is one application-slotframe cell: attempt numbers an own
// transmit cell (Eq. (4)'s p, child 0), child names the transmitter of a
// listen cell; lane is the channel offset, derived from the transmitter.
type appCell struct {
	attempt int
	child   topology.NodeID
	lane    uint8
}

// putCell records c at the offset. An offset already taken goes to the lower
// child ID — so an own transmit cell (child 0) is never displaced by a
// listen cell, and when two children's Eq. (4) cells collide the lower ID
// keeps the cell whichever child is placed first — and, among a node's own
// transmit cells, to the later attempt.
func putCell(cells mac.Cells[appCell], offset int64, c appCell) mac.Cells[appCell] {
	if old, taken := cells.At(offset, nil); taken && c.child > old.child {
		return cells
	}
	return cells.Put(offset, c)
}

func newScheduler(id topology.NodeID, isAP bool, cfg Config, router *Router) *scheduler {
	return &scheduler{id: id, isAP: isAP, cfg: cfg, router: router,
		ownSync: int64(id-1) % cfg.SyncFrameLen, parentSync: -1}
}

// Assignment resolves the combined schedule for a slot: node i broadcasts
// its EB in slot i-1 of the sync slotframe and listens in its best parent's
// (Section VI "Assigning Slots for Synchronization"); everyone shares slot 0
// of the routing slotframe ("Assigning Slots for Routing"); the node
// transmits in its Eq. (4) cells and listens in its children's (attempts
// 1..A-1 when it is their best parent, the final attempt when it is their
// backup). Application cells get their channel lane from the transmitter's
// ID.
func (s *scheduler) Assignment(asn sim.ASN) mac.Assignment {
	switch asn % s.cfg.SyncFrameLen {
	case s.ownSync:
		return mac.Assignment{Role: mac.RoleTxEB, ChannelOffset: syncChannelOffset}
	case s.parentOffset():
		return mac.Assignment{Role: mac.RoleRxEB, ChannelOffset: syncChannelOffset}
	}
	if asn%s.cfg.RoutingFrameLen == 0 {
		return mac.Assignment{Role: mac.RoleShared, ChannelOffset: routingChannelOffset}
	}
	if c, ok := s.appCells().At(asn%s.cfg.AppFrameLen, &s.cellsHint); ok {
		if c.child == 0 {
			return mac.Assignment{Role: mac.RoleTxData, ChannelOffset: c.lane, Attempt: c.attempt}
		}
		return mac.Assignment{Role: mac.RoleRxData, ChannelOffset: c.lane}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

// NextActive returns the earliest slot at or after `after` in which this
// node's combined schedule assigns any non-sleep role: its own EB slot,
// its best parent's EB slot, the shared routing slot, its Eq. (4) listen
// cells and, when data is queued, its Eq. (4) transmit cells. The schedule
// is the union of its frames, so that is exactly the first slot Assignment
// does not answer with sleep — or, with nothing queued, with sleep or an
// own transmit cell.
func (s *scheduler) NextActive(after sim.ASN, queued bool) sim.ASN {
	w := mac.NextOffset(after, s.cfg.SyncFrameLen, s.ownSync)
	if p := s.parentOffset(); p >= 0 {
		w = min(w, mac.NextOffset(after, s.cfg.SyncFrameLen, p))
	}
	w = min(w, mac.NextOffset(after, s.cfg.RoutingFrameLen, 0))
	cells, hint := s.appCells(), &s.cellsHint
	if !queued {
		cells, hint = s.listen, &s.listenHint
	}
	if v, ok := cells.Next(after, s.cfg.AppFrameLen, hint); ok {
		w = min(w, v)
	}
	return w
}

// parentOffset is the best parent's sync offset, -1 without one.
func (s *scheduler) parentOffset() int64 {
	if best, _ := s.router.Parents(); best != s.parent {
		s.parent, s.parentSync = best, -1
		if best != 0 {
			s.parentSync = int64(best-1) % s.cfg.SyncFrameLen
		}
	}
	return s.parentSync
}

// appCells returns the application-slotframe table, rebuilt first if the
// child set changed since it was built.
func (s *scheduler) appCells() mac.Cells[appCell] {
	v := s.router.ChildVersion()
	if s.cellsValid && v == s.cellsVersion {
		return s.cells
	}
	cfg := s.cfg
	cells, listen := s.cells.Reset(), s.listen.Reset()
	claim := func(id topology.NodeID, p int, c appCell) {
		c.lane = appLane(id)
		cells = putCell(cells, AppTxSlot(id, cfg.NumAPs, cfg.Attempts, p, cfg.AppFrameLen), c)
	}
	if !s.isAP {
		for p := 1; p <= cfg.Attempts; p++ {
			claim(s.id, p, appCell{attempt: p})
		}
	}
	for _, e := range s.router.children.Entries() {
		child, c := e.ID, e.Val
		switch c.role {
		case RoleBestParent:
			for p := 1; p < cfg.Attempts; p++ {
				claim(child, p, appCell{child: child})
			}
			if cfg.Attempts == 1 {
				claim(child, 1, appCell{child: child})
			}
		case RoleSecondParent:
			claim(child, cfg.Attempts, appCell{child: child})
		}
	}
	for _, c := range cells {
		if c.Val.child != 0 {
			listen = append(listen, c)
		}
	}
	s.cells, s.listen, s.cellsVersion, s.cellsValid = cells, listen, v, true
	return cells
}
