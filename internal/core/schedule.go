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

// Slotframe priorities: the paper gives synchronisation traffic the
// highest priority and application traffic the lowest (Section VI).
const (
	syncPriority    = 0
	routingPriority = 1
	appPriority     = 2
)

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
type scheduler struct {
	id     topology.NodeID
	isAP   bool
	cfg    Config
	router *Router

	combiner *mac.Combiner

	// The node's application-slotframe cells as offset-sorted tables: its
	// own Eq. (4) transmit cells, fixed at construction, and its children's,
	// rebuilt when the child set changes. The slot loop looks a slot up and
	// asks for the next cell far more often than the child set changes.
	txCells      mac.Cells[appCell]
	rxCells      mac.Cells[appCell]
	cacheVersion int64
	cacheValid   bool
}

// appCell is one application-slotframe cell: attempt numbers an own
// transmit cell (Eq. (4)'s p), child names the transmitter of a listen cell.
type appCell struct {
	attempt int
	child   topology.NodeID
}

// putCell records c at the offset. An offset already taken goes to the lower
// child ID — when two children's Eq. (4) cells collide the choice cannot
// depend on the children map's iteration order — and, among a node's own
// transmit cells (no child), to the later attempt.
func putCell(cells mac.Cells[appCell], offset int64, c appCell) mac.Cells[appCell] {
	if old, taken := cells.At(offset); taken && c.child > old.child {
		return cells
	}
	return cells.Put(offset, c)
}

func newScheduler(id topology.NodeID, isAP bool, cfg Config, router *Router) *scheduler {
	s := &scheduler{id: id, isAP: isAP, cfg: cfg, router: router}
	if !isAP {
		for p := 1; p <= cfg.Attempts; p++ {
			s.txCells = putCell(s.txCells,
				AppTxSlot(id, cfg.NumAPs, cfg.Attempts, p, cfg.AppFrameLen), appCell{attempt: p})
		}
	}
	s.combiner = mac.NewCombiner(
		mac.Slotframe{
			Length:        cfg.SyncFrameLen,
			Priority:      syncPriority,
			ChannelOffset: syncChannelOffset,
			Role:          s.syncRole,
		},
		mac.Slotframe{
			Length:        cfg.RoutingFrameLen,
			Priority:      routingPriority,
			ChannelOffset: routingChannelOffset,
			Role:          s.routingRole,
		},
		mac.Slotframe{
			Length:        cfg.AppFrameLen,
			Priority:      appPriority,
			ChannelOffset: appChannelOffset,
			Role:          s.appRole,
		},
	)
	return s
}

// Assignment resolves the combined schedule for a slot. Application cells
// get their channel lane from the transmitting node's ID.
func (s *scheduler) Assignment(asn sim.ASN) mac.Assignment {
	a := s.combiner.Assignment(asn)
	switch a.Role {
	case mac.RoleTxData:
		a.ChannelOffset = appLane(s.id)
	case mac.RoleRxData:
		if c, ok := s.rxCells.At(asn % s.cfg.AppFrameLen); ok {
			a.ChannelOffset = appLane(c.child)
		}
	}
	return a
}

// syncRole: node i broadcasts its EB in slot i-1 of the sync slotframe and
// listens in its best parent's slot (Section VI "Assigning Slots for
// Synchronization").
func (s *scheduler) syncRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if offset == int64(s.id-1)%s.cfg.SyncFrameLen {
		return mac.RoleTxEB, 0
	}
	if best, _ := s.router.Parents(); best != 0 &&
		offset == int64(best-1)%s.cfg.SyncFrameLen {
		return mac.RoleRxEB, 0
	}
	return mac.RoleSleep, 0
}

// routingRole: one fixed shared slot per routing slotframe for everyone
// (Section VI "Assigning Slots for Routing").
func (s *scheduler) routingRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if offset == 0 {
		return mac.RoleShared, 0
	}
	return mac.RoleSleep, 0
}

// appRole: transmit in this node's Eq. (4) slots, listen in the Eq. (4)
// slots of every child (attempts 1..A-1 when we are its best parent, the
// final attempt when we are its backup).
func (s *scheduler) appRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if c, ok := s.txCells.At(offset); ok {
		return mac.RoleTxData, c.attempt
	}
	s.refreshRxCache()
	if _, ok := s.rxCells.At(offset); ok {
		return mac.RoleRxData, 0
	}
	return mac.RoleSleep, 0
}

// NextActive returns the earliest slot at or after `after` in which this
// node's combined schedule assigns any non-sleep role: its own EB slot,
// its best parent's EB slot, the shared routing slot, and its Eq. (4)
// transmit and listen cells. The result is the union over slotframes —
// conservative with respect to the combiner, which only ever picks among
// these same cells.
func (s *scheduler) NextActive(after sim.ASN) sim.ASN {
	w := mac.NextOffset(after, s.cfg.SyncFrameLen, int64(s.id-1)%s.cfg.SyncFrameLen)
	if best, _ := s.router.Parents(); best != 0 {
		if v := mac.NextOffset(after, s.cfg.SyncFrameLen, int64(best-1)%s.cfg.SyncFrameLen); v < w {
			w = v
		}
	}
	if v := mac.NextOffset(after, s.cfg.RoutingFrameLen, 0); v < w {
		w = v
	}
	if v, ok := s.txCells.Next(after, s.cfg.AppFrameLen); ok && v < w {
		w = v
	}
	s.refreshRxCache()
	if v, ok := s.rxCells.Next(after, s.cfg.AppFrameLen); ok && v < w {
		w = v
	}
	return w
}

func (s *scheduler) refreshRxCache() {
	v := s.router.ChildVersion()
	if s.cacheValid && v == s.cacheVersion {
		return
	}
	s.rxCells = s.rxCells.Reset()
	claim := func(slot int64, child topology.NodeID) {
		s.rxCells = putCell(s.rxCells, slot, appCell{child: child})
	}
	for child, role := range s.router.Children() {
		switch role {
		case RoleBestParent:
			for p := 1; p < s.cfg.Attempts; p++ {
				claim(AppTxSlot(child, s.cfg.NumAPs, s.cfg.Attempts, p, s.cfg.AppFrameLen), child)
			}
			if s.cfg.Attempts == 1 {
				claim(AppTxSlot(child, s.cfg.NumAPs, s.cfg.Attempts, 1, s.cfg.AppFrameLen), child)
			}
		case RoleSecondParent:
			claim(AppTxSlot(child, s.cfg.NumAPs, s.cfg.Attempts, s.cfg.Attempts, s.cfg.AppFrameLen), child)
		}
	}
	s.cacheVersion = v
	s.cacheValid = true
}
