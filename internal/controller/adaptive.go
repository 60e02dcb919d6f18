package controller

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// AdaptiveConfig holds the distributed cell allocator's parameters. The
// slotframe lengths default to the paper's evaluation values (557/47/151),
// shared with DiGS and Orchestra.
type AdaptiveConfig struct {
	EBFrameLen     int64
	SharedFrameLen int64
	DataFrameLen   int64

	// Trickle gates DIO transmissions (slot units).
	Trickle trickle.Config

	NeighborTimeout time.Duration
	// MaintainEvery is the adaptation tick: queue depth and loss are
	// sampled and the cell budget adjusted once per tick.
	MaintainEvery time.Duration

	// RankGranularity is RPL's MinHopRankIncrease.
	RankGranularity int

	// MinCells / MaxCells bound the per-node transmit-cell budget in the
	// data slotframe.
	MinCells int
	MaxCells int
	// GrowQueue is the queue depth at an adaptation tick that triggers
	// allocating one more transmit cell.
	GrowQueue int
	// GrowFails is the number of failed data transmissions within one
	// tick that triggers allocating one more transmit cell.
	GrowFails int
	// ShrinkIdle is the number of consecutive fully idle ticks (empty
	// queue, no transmissions) after which one cell is shed.
	ShrinkIdle int
}

// DefaultAdaptiveConfig returns the evaluation configuration.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		EBFrameLen:      557,
		SharedFrameLen:  47,
		DataFrameLen:    151,
		Trickle:         trickle.Config{IminSlots: 100, Doublings: 7, K: 6},
		NeighborTimeout: 5 * time.Minute,
		MaintainEvery:   5 * time.Second,
		RankGranularity: 4,
		MinCells:        1,
		MaxCells:        4,
		GrowQueue:       4,
		GrowFails:       2,
		ShrinkIdle:      3,
	}
}

// Validate checks the configuration.
func (c AdaptiveConfig) Validate() error {
	if c.EBFrameLen <= 0 || c.SharedFrameLen <= 0 || c.DataFrameLen <= 0 {
		return fmt.Errorf("adaptive config: slotframe lengths must be positive (%d, %d, %d)",
			c.EBFrameLen, c.SharedFrameLen, c.DataFrameLen)
	}
	if c.MinCells < 1 || c.MaxCells < c.MinCells {
		return fmt.Errorf("adaptive config: cell bounds %d..%d", c.MinCells, c.MaxCells)
	}
	// The j-th cell sits at stride 53 from the (j-1)-th; all MaxCells
	// slots of one node must be distinct modulo the frame length (they
	// are whenever 53 and the frame length are coprime, as with the
	// default 151).
	seen := make(map[int64]bool, c.MaxCells)
	for j := 0; j < c.MaxCells; j++ {
		slot := (int64(j) * 53) % c.DataFrameLen
		if seen[slot] {
			return fmt.Errorf("adaptive config: %d cells collide in a %d-slot frame",
				c.MaxCells, c.DataFrameLen)
		}
		seen[slot] = true
	}
	return nil
}

// adaptiveCellSlot returns the j-th transmit cell of a node in the data
// slotframe. The stride keeps one node's cells distinct for prime frame
// lengths; cross-node collisions land on different channel lanes.
func adaptiveCellSlot(id topology.NodeID, j int, frameLen int64) int64 {
	return (int64(id)*37 + int64(j)*53) % frameLen
}

// adaptivePayload is a DIO extended with the sender's current transmit
// cell count, so parents can mirror the sender's cells as listen cells.
func adaptivePayload(d rpl.DIO, cells int) []byte {
	return append(d.Marshal(), byte(cells))
}

// splitAdaptivePayload decodes the extended DIO payload.
func splitAdaptivePayload(b []byte) (rpl.DIO, int, error) {
	if len(b) != 7 {
		return rpl.DIO{}, 0, fmt.Errorf("adaptive dio payload: %d bytes, want 7", len(b))
	}
	d, err := rpl.UnmarshalDIO(b[:6])
	if err != nil {
		return rpl.DIO{}, 0, err
	}
	cells := int(b[6])
	if cells < 1 {
		cells = 1
	}
	return d, cells, nil
}

// AdaptiveStack is one node's adaptive-allocator instance: RPL routing
// (like Orchestra) under a sender-based unicast slotframe whose per-node
// cell count tracks observed load. It implements mac.Protocol.
type AdaptiveStack struct {
	id     topology.NodeID
	isRoot bool
	cfg    AdaptiveConfig

	router   *rpl.Router
	tr       *trickle.Timer
	rng      *rand.Rand
	combiner *mac.Combiner
	// rngSrc is the counting source BuildAdaptive wires in; it is what
	// makes the stack's RNG position checkpointable.
	rngSrc *detrand.Source

	// queueLen reads the owning MAC node's data queue depth; installed by
	// BuildAdaptive after the node exists. Reading our own node's queue
	// from our own Assignment keeps the sharded engine's no-cross-node-
	// state rule intact.
	queueLen func() int

	wantDIO      bool
	nextMaintain sim.ASN
	nextSolicit  sim.ASN
	synced       bool

	// txCells is the current transmit-cell budget.
	txCells int
	// idleTicks counts consecutive adaptation ticks with nothing to send.
	idleTicks int
	// failsSinceTick / sentSinceTick are the tick-local loss and activity
	// counters feeding the allocator.
	failsSinceTick int
	sentSinceTick  int

	// neighborCells caches the advertised cell count of each neighbor
	// (from extended DIOs); childCells is the offset-sorted table of the
	// listening obligations derived from it, naming the potential child
	// that owns each data-slotframe cell — nil until the first maintenance
	// tick, rebuilt in place at each one like Orchestra's child-slot cache.
	neighborCells map[topology.NodeID]int
	childCells    mac.Cells[topology.NodeID]
}

var _ mac.Protocol = (*AdaptiveStack)(nil)

// NewAdaptiveStack builds an adaptive stack for one node.
func NewAdaptiveStack(id topology.NodeID, isRoot bool, cfg AdaptiveConfig, rng *rand.Rand) (*AdaptiveStack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := trickle.NewTimer(cfg.Trickle, rng)
	if err != nil {
		return nil, fmt.Errorf("adaptive stack %d: %w", id, err)
	}
	s := &AdaptiveStack{
		id:      id,
		isRoot:  isRoot,
		cfg:     cfg,
		router:  rpl.NewRouter(id, isRoot, sim.SlotsFor(cfg.NeighborTimeout), cfg.RankGranularity),
		tr:      tr,
		rng:     rng,
		txCells: cfg.MinCells,
	}
	s.combiner = mac.NewCombiner(
		mac.Slotframe{Length: cfg.EBFrameLen, Priority: 0, ChannelOffset: ebChannelOffset,
			Role: s.ebRole},
		mac.Slotframe{Length: cfg.SharedFrameLen, Priority: 1, ChannelOffset: sharedChannelOffset,
			Role: s.sharedRole},
		mac.Slotframe{Length: cfg.DataFrameLen, Priority: 2, ChannelOffset: unicastChannelOffset,
			Role: s.dataRole},
	)
	return s, nil
}

// Router exposes the RPL state for experiments and tests.
func (s *AdaptiveStack) Router() *rpl.Router { return s.router }

// Joined implements stack.Node: the node is in the DODAG.
func (s *AdaptiveStack) Joined() bool { return s.router.Joined() }

// SetRouteHook implements stack.Node.
func (s *AdaptiveStack) SetRouteHook(fn stack.RouteHook) { s.router.OnParentChange = fn }

// Probe implements stack.Node. RPL keeps a single preferred parent, so
// backup is always 0, like Orchestra.
func (s *AdaptiveStack) Probe() (parent, backup topology.NodeID, neighbors int) {
	return s.router.Parent(), 0, s.router.Neighbors()
}

// TxCells exposes the current transmit-cell budget for tests and probes.
func (s *AdaptiveStack) TxCells() int { return s.txCells }

// Reset implements mac.Resetter: back to the just-constructed state. The
// installed OnParentChange callback, the queue-length hook and the
// configuration survive, like the other stacks.
func (s *AdaptiveStack) Reset() {
	onChange := s.router.OnParentChange
	router := rpl.NewRouter(s.id, s.isRoot, sim.SlotsFor(s.cfg.NeighborTimeout),
		s.cfg.RankGranularity)
	router.OnParentChange = onChange
	s.router = router
	s.tr, _ = trickle.NewTimer(s.cfg.Trickle, s.rng)
	s.wantDIO = false
	s.nextMaintain = 0
	s.nextSolicit = 0
	s.synced = false
	s.txCells = s.cfg.MinCells
	s.idleTicks = 0
	s.failsSinceTick = 0
	s.sentSinceTick = 0
	s.neighborCells = nil
	s.childCells = nil
}

func (s *AdaptiveStack) ebRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if offset == int64(s.id-1)%s.cfg.EBFrameLen {
		return mac.RoleTxEB, 0
	}
	if p := s.router.Parent(); p != 0 && offset == int64(p-1)%s.cfg.EBFrameLen {
		return mac.RoleRxEB, 0
	}
	return mac.RoleSleep, 0
}

func (s *AdaptiveStack) sharedRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if offset == 0 {
		return mac.RoleShared, 0
	}
	return mac.RoleSleep, 0
}

// dataRole: transmit in our own cells (sender-based — the cell budget is
// ours to grow), listen in every potential child's advertised cells.
func (s *AdaptiveStack) dataRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if s.router.Parent() != 0 {
		for j := 0; j < s.txCells; j++ {
			if offset == adaptiveCellSlot(s.id, j, s.cfg.DataFrameLen) {
				return mac.RoleTxData, 1
			}
		}
	}
	if _, ok := s.childCells.At(offset); ok {
		return mac.RoleRxData, 0
	}
	return mac.RoleSleep, 0
}

// refreshChildCells mirrors each potential child's advertised cell count
// as listen cells, children in ascending ID: a cell two of them claim goes
// to the higher ID.
func (s *AdaptiveStack) refreshChildCells() {
	s.childCells = s.childCells.Reset()
	if s.isRoot || s.router.Parent() != 0 {
		for _, c := range s.router.PotentialChildren() {
			k := s.neighborCells[c]
			if k < s.cfg.MinCells {
				k = s.cfg.MinCells
			}
			if k > s.cfg.MaxCells {
				k = s.cfg.MaxCells
			}
			for j := 0; j < k; j++ {
				s.childCells = s.childCells.Put(adaptiveCellSlot(c, j, s.cfg.DataFrameLen), c)
			}
		}
	}
}

// NextActive implements mac.Protocol: Orchestra's shape — own beacon slot
// and the parent's, the shared slot, transmit and listen cells whether or
// not anything is queued, the maintenance tick (where adapt runs) and the
// Trickle timer — with txCells own cells and the children's advertised ones.
func (s *AdaptiveStack) NextActive(after sim.ASN) sim.ASN {
	w := mac.NextOffset(after, s.cfg.EBFrameLen, int64(s.id-1)%s.cfg.EBFrameLen)
	w = min(w, mac.NextOffset(after, s.cfg.SharedFrameLen, 0))
	if p := s.router.Parent(); p != 0 {
		w = min(w, mac.NextOffset(after, s.cfg.EBFrameLen, int64(p-1)%s.cfg.EBFrameLen))
		for j := 0; j < s.txCells; j++ {
			w = min(w, mac.NextOffset(after, s.cfg.DataFrameLen, adaptiveCellSlot(s.id, j, s.cfg.DataFrameLen)))
		}
	}
	if v, ok := s.childCells.Next(after, s.cfg.DataFrameLen); ok {
		w = min(w, v)
	}
	if s.synced {
		w = min(w, max(s.tr.NextEvent(after), after))
	}
	return min(w, max(s.nextMaintain, after))
}

// adapt is the allocator: grow under queue pressure or loss, shed after
// sustained idleness. A change re-advertises promptly via a Trickle reset
// so the parent's listen cells track the new budget.
func (s *AdaptiveStack) adapt(asn sim.ASN) {
	q := 0
	if s.queueLen != nil {
		q = s.queueLen()
	}
	changed := false
	switch {
	case q >= s.cfg.GrowQueue || s.failsSinceTick >= s.cfg.GrowFails:
		if s.txCells < s.cfg.MaxCells {
			s.txCells++
			changed = true
		}
		s.idleTicks = 0
	case q == 0 && s.sentSinceTick == 0:
		s.idleTicks++
		if s.idleTicks >= s.cfg.ShrinkIdle && s.txCells > s.cfg.MinCells {
			s.txCells--
			s.idleTicks = 0
			changed = true
		}
	default:
		s.idleTicks = 0
	}
	s.failsSinceTick = 0
	s.sentSinceTick = 0
	if changed && s.synced {
		s.tr.Reset(asn)
	}
}

// Assignment implements mac.Protocol.
func (s *AdaptiveStack) Assignment(asn sim.ASN) mac.Assignment {
	if asn >= s.nextMaintain {
		s.nextMaintain = asn + sim.SlotsFor(s.cfg.MaintainEvery)
		if s.router.Maintain(asn) && s.synced {
			s.tr.Reset(asn)
		}
		s.adapt(asn)
		s.refreshChildCells()
	}
	if s.tr.Fires(asn) {
		s.wantDIO = true
	}
	a := s.combiner.Assignment(asn)
	offset := asn % s.cfg.DataFrameLen
	switch a.Role {
	case mac.RoleTxData:
		a.ChannelOffset = unicastLane(s.id)
	case mac.RoleRxData:
		if c, ok := s.childCells.At(offset); ok {
			a.ChannelOffset = unicastLane(c)
		}
	}
	return a
}

// OnSynced implements mac.Protocol.
func (s *AdaptiveStack) OnSynced(asn sim.ASN) {
	s.synced = true
	s.tr.Start(asn)
	s.nextSolicit = asn + 500 + sim.ASN(s.rng.Intn(500))
}

// EBPayload implements mac.Protocol: beacons carry the RPL join metric
// extended with the sender's cell count.
func (s *AdaptiveStack) EBPayload() []byte {
	adv, ok := s.router.Advertisement()
	if !ok {
		return nil
	}
	return adaptivePayload(adv, s.txCells)
}

// OnFrame implements mac.Protocol.
func (s *AdaptiveStack) OnFrame(asn sim.ASN, f *sim.Frame, rssi float64) {
	switch f.Kind {
	case sim.KindEB:
		if d, cells, err := splitAdaptivePayload(f.Payload); err == nil {
			s.noteNeighborCells(f.Src, cells)
			if s.router.OnDIO(asn, f.Src, d, rssi) && s.synced {
				s.tr.Reset(asn)
			}
			return
		}
		s.router.Observe(f.Src, rssi)
	case sim.KindJoinIn: // a DIO in this stack
		d, cells, err := splitAdaptivePayload(f.Payload)
		if err != nil {
			return
		}
		s.noteNeighborCells(f.Src, cells)
		if s.router.OnDIO(asn, f.Src, d, rssi) {
			if s.synced {
				s.tr.Reset(asn)
			}
		} else {
			s.tr.Hear()
		}
	case sim.KindSolicit:
		s.router.Observe(f.Src, rssi)
		if s.router.Joined() {
			s.tr.Reset(asn)
		}
	case sim.KindData:
		s.router.Observe(f.Src, rssi)
	}
}

func (s *AdaptiveStack) noteNeighborCells(from topology.NodeID, cells int) {
	if s.neighborCells == nil {
		s.neighborCells = make(map[topology.NodeID]int)
	}
	s.neighborCells[from] = cells
}

// SharedFrame implements mac.Protocol: DIS solicitation when parentless,
// Trickle-latched DIOs otherwise, both behind a persistence coin.
func (s *AdaptiveStack) SharedFrame(asn sim.ASN) (*sim.Frame, bool) {
	if s.synced && !s.router.Joined() {
		if asn >= s.nextSolicit {
			s.nextSolicit = asn + 1000 + sim.ASN(s.rng.Intn(500))
			return &sim.Frame{Kind: sim.KindSolicit, Src: s.id, Dst: topology.Broadcast}, false
		}
		return nil, false
	}
	if !s.wantDIO || s.rng.Intn(2) == 1 {
		return nil, false
	}
	adv, ok := s.router.Advertisement()
	if !ok {
		s.wantDIO = false
		return nil, false
	}
	s.wantDIO = false
	return &sim.Frame{
		Kind:    sim.KindJoinIn,
		Src:     s.id,
		Dst:     topology.Broadcast,
		Payload: adaptivePayload(adv, s.txCells),
	}, false
}

// NextHop implements mac.Protocol: the single RPL preferred parent.
func (s *AdaptiveStack) NextHop(sim.ASN, int) (topology.NodeID, bool) {
	p := s.router.Parent()
	return p, p != 0
}

// OnTxResult implements mac.Protocol: data outcomes feed both the RPL
// link estimator and the allocator's tick-local loss counter. Cells are
// dedicated (sender-based), so there is no contention backoff.
func (s *AdaptiveStack) OnTxResult(asn sim.ASN, f *sim.Frame, to topology.NodeID, acked bool) {
	if f.Kind == sim.KindData {
		s.sentSinceTick++
		if !acked {
			s.failsSinceTick++
		}
	}
	if s.router.OnTxResult(asn, to, acked) && s.synced {
		s.tr.Reset(asn)
	}
}
