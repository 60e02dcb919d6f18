// Package orchestra implements the autonomous-scheduling baseline the
// paper evaluates against (Duquennoy et al., SenSys'15): Orchestra over
// RPL. Nodes derive their TSCH schedule from local RPL state with three
// slotframes — EBs, a common shared slot for routing traffic, and a
// receiver-based unicast slotframe where every node listens in a slot
// hashed from its own ID and transmits in the slot hashed from its
// preferred parent's ID.
package orchestra

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

// Channel offsets and priorities mirror the DiGS configuration so the
// comparison isolates routing/scheduling, not radio parameters.
const (
	ebChannelOffset      = 0
	sharedChannelOffset  = 1
	unicastChannelOffset = 2

	// unicastLanes spreads unicast cells over several channel offsets
	// derived from the cell owner's ID, so hash collisions in the cell
	// space land on different channels (standard Orchestra/ALICE
	// practice).
	unicastLanes = 12
)

// unicastLane returns the channel-offset lane of a node's unicast cells.
func unicastLane(id topology.NodeID) uint8 {
	return unicastChannelOffset + uint8((int64(id)*13)%unicastLanes)
}

// Config holds Orchestra parameters. The slotframe lengths default to the
// paper's evaluation values (557 / 47 / 151), shared with DiGS.
type Config struct {
	EBFrameLen      int64
	SharedFrameLen  int64
	UnicastFrameLen int64

	// ReceiverBased selects Orchestra's receiver-based unicast slotframe
	// (one listen cell per node, all its children contend in it) instead
	// of the default sender-based one (one transmit cell per node, the
	// parent listens in every potential child's cell). Sender-based is
	// what deployments use for collection traffic: it avoids funnelling
	// a whole subtree into the sink's single cell.
	ReceiverBased bool

	// Trickle gates DIO transmissions (slot units).
	Trickle trickle.Config

	NeighborTimeout time.Duration
	MaintainEvery   time.Duration

	// RankGranularity is RPL's MinHopRankIncrease (per-hop rank step is
	// link ETX scaled by this factor).
	RankGranularity int
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		EBFrameLen:      557,
		SharedFrameLen:  47,
		UnicastFrameLen: 151,
		Trickle:         trickle.Config{IminSlots: 100, Doublings: 7, K: 6},
		NeighborTimeout: 5 * time.Minute,
		MaintainEvery:   5 * time.Second,
		RankGranularity: 4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EBFrameLen <= 0 || c.SharedFrameLen <= 0 || c.UnicastFrameLen <= 0 {
		return fmt.Errorf("orchestra config: slotframe lengths must be positive (%d, %d, %d)",
			c.EBFrameLen, c.SharedFrameLen, c.UnicastFrameLen)
	}
	return nil
}

// RxSlot returns the unicast-slotframe slot a node listens in
// (receiver-based scheduling: a hash of the node identity).
func RxSlot(id topology.NodeID, frameLen int64) int64 {
	return (int64(id) * 37) % frameLen
}

// Stack is one node's Orchestra + RPL instance. It implements
// mac.Protocol.
type Stack struct {
	id     topology.NodeID
	isRoot bool
	cfg    Config

	router   *rpl.Router
	tr       *trickle.Timer
	rng      *rand.Rand
	combiner *mac.Combiner
	// rngSrc is set when the stack was built over a counting source
	// (orchestra.Build does this); it is what makes the stack's RNG
	// position checkpointable.
	rngSrc *detrand.Source

	wantDIO      bool
	nextMaintain sim.ASN
	nextSolicit  sim.ASN
	synced       bool

	// txBackoff skips that many of our unicast transmit opportunities
	// after a failed data transmission (randomised retry, the slot-atomic
	// stand-in for CSMA backoff inside shared cells).
	txBackoff int

	// childSlots caches the sender cells of potential children
	// (sender-based mode) as an offset-sorted table naming the child that
	// owns each cell; nil until the first maintenance tick, rebuilt in
	// place at each one.
	childSlots mac.Cells[topology.NodeID]
}

var _ mac.Protocol = (*Stack)(nil)

// NewStack builds an Orchestra stack for one node.
func NewStack(id topology.NodeID, isRoot bool, cfg Config, rng *rand.Rand) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := trickle.NewTimer(cfg.Trickle, rng)
	if err != nil {
		return nil, fmt.Errorf("orchestra stack %d: %w", id, err)
	}
	s := &Stack{
		id:     id,
		isRoot: isRoot,
		cfg:    cfg,
		router: rpl.NewRouter(id, isRoot, sim.SlotsFor(cfg.NeighborTimeout), cfg.RankGranularity),
		tr:     tr,
		rng:    rng,
	}
	s.combiner = mac.NewCombiner(
		mac.Slotframe{Length: cfg.EBFrameLen, Priority: 0, ChannelOffset: ebChannelOffset,
			Role: s.ebRole},
		mac.Slotframe{Length: cfg.SharedFrameLen, Priority: 1, ChannelOffset: sharedChannelOffset,
			Role: s.sharedRole},
		mac.Slotframe{Length: cfg.UnicastFrameLen, Priority: 2, ChannelOffset: unicastChannelOffset,
			Role: s.unicastRole},
	)
	return s, nil
}

// Router exposes the RPL state for experiments and tests.
func (s *Stack) Router() *rpl.Router { return s.router }

// Joined implements stack.Node: the node is in the DODAG.
func (s *Stack) Joined() bool { return s.router.Joined() }

// SetRouteHook implements stack.Node.
func (s *Stack) SetRouteHook(fn stack.RouteHook) { s.router.OnParentChange = fn }

// Probe implements stack.Node. RPL keeps a single preferred parent, so
// backup is always 0 — runs that enable the monitor's RequireBackup check
// will flag every Orchestra node, which is the honest reading of the
// paper's single-parent critique.
func (s *Stack) Probe() (parent, backup topology.NodeID, neighbors int) {
	return s.router.Parent(), 0, s.router.Neighbors()
}

// Reset implements mac.Resetter: it discards the RPL neighbour set,
// parent and derived schedule caches, returning the stack to its
// just-constructed state. The installed OnParentChange callback and the
// configuration survive, so a chaos-plan reboot with state loss keeps
// reporting route changes through the same telemetry chain.
func (s *Stack) Reset() {
	onChange := s.router.OnParentChange
	router := rpl.NewRouter(s.id, s.isRoot, sim.SlotsFor(s.cfg.NeighborTimeout),
		s.cfg.RankGranularity)
	router.OnParentChange = onChange
	s.router = router
	// NewTimer only fails on invalid config, which Validate already
	// accepted at construction.
	s.tr, _ = trickle.NewTimer(s.cfg.Trickle, s.rng)
	s.wantDIO = false
	s.nextMaintain = 0
	s.nextSolicit = 0
	s.synced = false
	s.txBackoff = 0
	s.childSlots = nil
}

func (s *Stack) ebRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if offset == int64(s.id-1)%s.cfg.EBFrameLen {
		return mac.RoleTxEB, 0
	}
	if p := s.router.Parent(); p != 0 && offset == int64(p-1)%s.cfg.EBFrameLen {
		return mac.RoleRxEB, 0
	}
	return mac.RoleSleep, 0
}

func (s *Stack) sharedRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if offset == 0 {
		return mac.RoleShared, 0
	}
	return mac.RoleSleep, 0
}

// unicastRole dispatches on the configured Orchestra unicast mode.
func (s *Stack) unicastRole(offset int64, _ sim.ASN) (mac.SlotRole, int) {
	if s.cfg.ReceiverBased {
		return s.receiverBasedRole(offset)
	}
	return s.senderBasedRole(offset)
}

// receiverBasedRole: listen in the slot hashed from our own ID; transmit
// in the slot hashed from the preferred parent's ID. Transmit wins when
// both hash to the same slot.
func (s *Stack) receiverBasedRole(offset int64) (mac.SlotRole, int) {
	if p := s.router.Parent(); p != 0 && offset == RxSlot(p, s.cfg.UnicastFrameLen) {
		if s.txBackoff > 0 {
			s.txBackoff--
			return mac.RoleSleep, 0
		}
		return mac.RoleTxData, 1
	}
	if offset == RxSlot(s.id, s.cfg.UnicastFrameLen) {
		return mac.RoleRxData, 0
	}
	return mac.RoleSleep, 0
}

// senderBasedRole: transmit in the slot hashed from our own ID; listen in
// the sender cells of every potential child (the RPL neighbours below us).
func (s *Stack) senderBasedRole(offset int64) (mac.SlotRole, int) {
	if s.router.Parent() != 0 && offset == RxSlot(s.id, s.cfg.UnicastFrameLen) {
		if s.txBackoff > 0 {
			s.txBackoff--
			return mac.RoleSleep, 0
		}
		return mac.RoleTxData, 1
	}
	if _, ok := s.childSlots.At(offset); ok {
		return mac.RoleRxData, 0
	}
	return mac.RoleSleep, 0
}

// refreshChildSlots rebuilds the table from the potential children in
// ascending ID: a cell two of them hash to goes to the higher ID.
func (s *Stack) refreshChildSlots() {
	s.childSlots = s.childSlots.Reset()
	if s.isRoot || s.router.Parent() != 0 {
		for _, c := range s.router.PotentialChildren() {
			s.childSlots = s.childSlots.Put(RxSlot(c, s.cfg.UnicastFrameLen), c)
		}
	}
}

// NextActive implements mac.Protocol: the earliest slot at or after `after`
// holding one of the node's cells — its own beacon slot and its parent's,
// the shared slot, its unicast transmit and listen cells, each whether or
// not there is anything to send in it (the transmit cell's backoff counter
// ticks there) — or one of its timers: the maintenance tick and the
// Trickle timer's fire or rollover slot.
func (s *Stack) NextActive(after sim.ASN) sim.ASN {
	w := mac.NextOffset(after, s.cfg.EBFrameLen, int64(s.id-1)%s.cfg.EBFrameLen)
	w = min(w, mac.NextOffset(after, s.cfg.SharedFrameLen, 0))
	p, own := s.router.Parent(), RxSlot(s.id, s.cfg.UnicastFrameLen)
	if p != 0 {
		w = min(w, mac.NextOffset(after, s.cfg.EBFrameLen, int64(p-1)%s.cfg.EBFrameLen))
	}
	if s.cfg.ReceiverBased {
		w = min(w, mac.NextOffset(after, s.cfg.UnicastFrameLen, own))
		if p != 0 {
			w = min(w, mac.NextOffset(after, s.cfg.UnicastFrameLen, RxSlot(p, s.cfg.UnicastFrameLen)))
		}
	} else {
		if p != 0 {
			w = min(w, mac.NextOffset(after, s.cfg.UnicastFrameLen, own))
		}
		if v, ok := s.childSlots.Next(after, s.cfg.UnicastFrameLen); ok {
			w = min(w, v)
		}
	}
	if s.synced {
		w = min(w, max(s.tr.NextEvent(after), after))
	}
	return min(w, max(s.nextMaintain, after))
}

// Assignment implements mac.Protocol. Unicast cells get their channel
// lane from the cell owner's ID.
func (s *Stack) Assignment(asn sim.ASN) mac.Assignment {
	if asn >= s.nextMaintain {
		s.nextMaintain = asn + sim.SlotsFor(s.cfg.MaintainEvery)
		if s.router.Maintain(asn) && s.synced {
			s.tr.Reset(asn)
		}
		s.refreshChildSlots()
	}
	if s.tr.Fires(asn) {
		s.wantDIO = true
	}
	a := s.combiner.Assignment(asn)
	offset := asn % s.cfg.UnicastFrameLen
	switch a.Role {
	case mac.RoleTxData:
		if s.cfg.ReceiverBased {
			a.ChannelOffset = unicastLane(s.router.Parent())
		} else {
			a.ChannelOffset = unicastLane(s.id)
		}
	case mac.RoleRxData:
		if s.cfg.ReceiverBased {
			a.ChannelOffset = unicastLane(s.id)
		} else if c, ok := s.childSlots.At(offset); ok {
			a.ChannelOffset = unicastLane(c)
		}
	}
	return a
}

// OnSynced implements mac.Protocol.
func (s *Stack) OnSynced(asn sim.ASN) {
	s.synced = true
	s.tr.Start(asn)
	s.nextSolicit = asn + 500 + sim.ASN(s.rng.Intn(500))
}

// EBPayload implements mac.Protocol: beacons carry the RPL join metric.
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
		if d, err := rpl.UnmarshalDIO(f.Payload); err == nil {
			if s.router.OnDIO(asn, f.Src, d, rssi) && s.synced {
				s.tr.Reset(asn)
			}
			return
		}
		s.router.Observe(f.Src, rssi)
	case sim.KindJoinIn: // a DIO in this stack
		d, err := rpl.UnmarshalDIO(f.Payload)
		if err != nil {
			return
		}
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

// SharedFrame implements mac.Protocol: DIS solicitation when parentless,
// Trickle-latched DIOs otherwise, both behind a persistence coin.
func (s *Stack) SharedFrame(asn sim.ASN) (*sim.Frame, bool) {
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
		Payload: adv.Marshal(),
	}, false
}

// NextHop implements mac.Protocol: always the single preferred parent —
// Orchestra has no backup route, which is exactly what the paper's
// comparison exercises.
func (s *Stack) NextHop(sim.ASN, int) (topology.NodeID, bool) {
	p := s.router.Parent()
	return p, p != 0
}

// OnTxResult implements mac.Protocol. Random retry backoff applies only in
// receiver-based mode, where siblings contend in the parent's cell;
// sender-based cells are dedicated, so the retransmission goes out in the
// next slotframe.
func (s *Stack) OnTxResult(asn sim.ASN, f *sim.Frame, to topology.NodeID, acked bool) {
	if s.cfg.ReceiverBased && f.Kind == sim.KindData && !acked {
		s.txBackoff = s.rng.Intn(4)
	}
	if s.router.OnTxResult(asn, to, acked) && s.synced {
		s.tr.Reset(asn)
	}
}
