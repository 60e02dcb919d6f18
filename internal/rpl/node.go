package rpl

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// Channel offsets mirror the DiGS configuration so the comparison isolates
// routing/scheduling, not radio parameters.
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

// Config holds the parameters of an RPL-over-TSCH node. The paper's
// evaluation values for the slotframe lengths are 557 / 47 / 151, shared
// with DiGS.
type Config struct {
	EBFrameLen      int64
	SharedFrameLen  int64
	UnicastFrameLen int64

	// Trickle gates DIO transmissions (slot units).
	Trickle trickle.Config

	NeighborTimeout time.Duration
	MaintainEvery   time.Duration

	// RankGranularity is RPL's MinHopRankIncrease (per-hop rank step is
	// link ETX scaled by this factor).
	RankGranularity int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EBFrameLen <= 0 || c.SharedFrameLen <= 0 || c.UnicastFrameLen <= 0 {
		return fmt.Errorf("rpl config: slotframe lengths must be positive (%d, %d, %d)",
			c.EBFrameLen, c.SharedFrameLen, c.UnicastFrameLen)
	}
	return nil
}

// Node is the control plane every RPL-over-TSCH stack runs, written once:
// the RPL router, the Trickle timer and the DIO it latches, DIS
// solicitation, the three slotframes combined by priority, the maintenance
// tick, and the table of unicast cells the node listens in. A stack embeds
// a Node and adds its cell policy as data: the unicast cells the node
// transmits in once it has a parent (SetTxCells), the cells of its
// potential children it listens in (ResetChildCells and Listen, at each
// maintenance tick), and the option bytes that ride behind the DIO. The
// node holds no function value from its stack. The stack calls down into
// the Node — Maintain, then its own tick work, then Assignment — so the
// order of the node's RNG draws is the stack's to keep.
type Node struct {
	id     topology.NodeID
	isRoot bool
	cfg    Config

	router *Router
	tr     *trickle.Timer
	// src counts the draws of rng (same value stream as rand.NewSource),
	// which is what makes the node's RNG position checkpointable.
	src *detrand.Source
	rng *rand.Rand

	// Beacon-slotframe offsets: the node's own, cached at build, and its
	// parent's, re-derived when the parent changes (-1 while it has none).
	ownEB    int64
	parent   topology.NodeID
	parentEB int64
	// txCells are the unicast-slotframe offsets the stack transmits in once
	// the node has a parent.
	txCells []int64

	wantDIO      bool
	nextMaintain sim.ASN
	nextSolicit  sim.ASN
	synced       bool

	// childCells names, per offset of the unicast slotframe, the potential
	// child whose transmit cell the node listens in; nil until the first
	// maintenance tick, rebuilt in place at each one. childHint is its
	// lookup hint.
	childCells mac.Cells[topology.NodeID]
	childHint  int
}

// NewNode builds the control plane of one node over a generator seeded
// with seed. It transmits in no unicast cell until the stack sets them.
func NewNode(id topology.NodeID, isRoot bool, cfg Config, seed int64) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := detrand.New(seed)
	n := &Node{id: id, isRoot: isRoot, cfg: cfg, src: src, rng: rand.New(src),
		ownEB: int64(id-1) % cfg.EBFrameLen, parentEB: -1}
	var err error
	if n.tr, err = trickle.NewTimer(cfg.Trickle, n.rng); err != nil {
		return nil, fmt.Errorf("rpl node %d: %w", id, err)
	}
	n.router = n.newRouter()
	return n, nil
}

// SetTxCells makes the offsets of the unicast slotframe the node's transmit
// cells, replacing the previous ones: the stack's cell policy, handed down
// at build and whenever the policy changes its cells. Reset keeps them.
func (n *Node) SetTxCells(offsets ...int64) {
	n.txCells = append(n.txCells[:0], offsets...)
}

func (n *Node) newRouter() *Router {
	return NewRouter(n.id, n.isRoot, sim.SlotsFor(n.cfg.NeighborTimeout), n.cfg.RankGranularity)
}

// ID returns the node's identity.
func (n *Node) ID() topology.NodeID { return n.id }

// Router exposes the RPL state for experiments and tests.
func (n *Node) Router() *Router { return n.router }

// Joined implements stack.Node: the node is in the DODAG.
func (n *Node) Joined() bool { return n.router.Joined() }

// SetRouteHook implements stack.Node.
func (n *Node) SetRouteHook(fn stack.RouteHook) { n.router.OnParentChange = fn }

// SetJoinHook implements stack.Node.
func (n *Node) SetJoinHook(fn func()) { n.router.OnJoinedChange = fn }

// Probe implements stack.Node.
func (n *Node) Probe() (parent topology.NodeID, neighbors int) {
	return n.router.Parent(), n.router.Neighbors()
}

// Reset implements mac.Resetter: it discards the RPL neighbour set, parent
// and listen cells, returning the node to its just-constructed state. The
// installed route and join hooks, the configuration and the transmit cells
// survive, so a chaos-plan reboot with state loss keeps reporting route
// changes through the same telemetry chain; a stack whose policy resets its
// cells sets them again.
func (n *Node) Reset() {
	old := n.router
	n.router = n.newRouter()
	n.router.OnParentChange, n.router.OnJoinedChange = old.OnParentChange, old.OnJoinedChange
	// NewTimer only fails on invalid config, which NewNode already
	// accepted.
	n.tr, _ = trickle.NewTimer(n.cfg.Trickle, n.rng)
	n.wantDIO = false
	n.nextMaintain = 0
	n.nextSolicit = 0
	n.synced = false
	n.childCells = nil
}

// parentOffset is the parent's beacon offset, -1 without a parent.
func (n *Node) parentOffset() int64 {
	if p := n.router.Parent(); p != n.parent {
		n.parent, n.parentEB = p, -1
		if p != 0 {
			n.parentEB = int64(p-1) % n.cfg.EBFrameLen
		}
	}
	return n.parentEB
}

// Readvertise collapses the Trickle interval, so a change the neighbours
// should learn of goes out in a DIO promptly. A node that has not
// synchronised yet has no timer to reset.
func (n *Node) Readvertise(asn sim.ASN) {
	if n.synced {
		n.tr.Reset(asn)
	}
}

// Maintain runs the maintenance tick when it is due — stale neighbours
// expire, the parent is re-evaluated — and reports whether it ran: that is
// when the stack rebuilds the listen cells.
func (n *Node) Maintain(asn sim.ASN) bool {
	if asn < n.nextMaintain {
		return false
	}
	n.nextMaintain = asn + sim.SlotsFor(n.cfg.MaintainEvery)
	if n.router.Maintain(asn) {
		n.Readvertise(asn)
	}
	return true
}

// ResetChildCells empties the listen-cell table and returns the potential
// children to place cells for, in ascending ID: none while the node is
// outside the DODAG.
func (n *Node) ResetChildCells() []topology.NodeID {
	n.childCells = n.childCells.Reset()
	if !n.router.Joined() {
		return nil
	}
	return n.router.PotentialChildren()
}

// Listen makes the node listen at the offset of the unicast slotframe, in
// a cell the potential child transmits in. A cell two children claim goes
// to the one placed last.
func (n *Node) Listen(offset int64, child topology.NodeID) {
	n.childCells = n.childCells.Put(offset, child)
}

// NextActive implements mac.Protocol's NextActive: the earliest slot at or
// after `after` holding the node's own beacon slot or its parent's, the
// shared slot, its transmit cells once it has a parent and while data is
// queued, a listen cell its transmit cells do not take — each whether or
// not there is anything to send or hear in it — or one of the timers: the
// maintenance tick and the Trickle timer's fire or rollover slot. Each
// slotframe costs one %, each cell a distance from it.
func (n *Node) NextActive(after sim.ASN, queued bool) sim.ASN {
	eb := after % n.cfg.EBFrameLen
	d := mac.Dist(eb, n.ownEB, n.cfg.EBFrameLen)
	if p := n.parentOffset(); p >= 0 {
		d = min(d, mac.Dist(eb, p, n.cfg.EBFrameLen))
	}
	d = min(d, mac.Dist(after%n.cfg.SharedFrameLen, 0, n.cfg.SharedFrameLen))
	u := after % n.cfg.UnicastFrameLen
	var v int64
	var ok bool
	if n.parent != 0 && !queued {
		// A listen cell under one of its own transmit cells is not planned.
		v, ok = n.childCells.DistExcept(u, n.cfg.UnicastFrameLen, n.transmitsAt)
	} else {
		v, ok = n.childCells.Dist(u, n.cfg.UnicastFrameLen, &n.childHint)
		if n.parent != 0 {
			for _, c := range n.txCells {
				d = min(d, mac.Dist(u, c, n.cfg.UnicastFrameLen))
			}
		}
	}
	if ok {
		d = min(d, v)
	}
	w := after + d
	if n.synced {
		w = min(w, max(n.tr.NextEvent(after), after))
	}
	return min(w, max(n.nextMaintain, after))
}

// transmitsAt reports whether the offset of the unicast slotframe is one of
// the node's transmit cells.
func (n *Node) transmitsAt(offset int64) bool { return slices.Contains(n.txCells, offset) }

// Assignment latches a DIO when the Trickle timer fires and answers the
// slot from the three slotframes, highest priority first: the node's own
// beacon, its parent's, the shared slot, its transmit cells while it has a
// parent, its listen cells. Unicast cells get their channel lane from the
// cell owner's ID. The stack calls Maintain first.
func (n *Node) Assignment(asn sim.ASN) mac.Assignment {
	if n.tr.Fires(asn) {
		n.wantDIO = true
	}
	switch asn % n.cfg.EBFrameLen {
	case n.ownEB:
		return mac.Assignment{Role: mac.RoleTxEB, ChannelOffset: ebChannelOffset}
	case n.parentOffset():
		return mac.Assignment{Role: mac.RoleRxEB, ChannelOffset: ebChannelOffset}
	}
	if asn%n.cfg.SharedFrameLen == 0 {
		return mac.Assignment{Role: mac.RoleShared, ChannelOffset: sharedChannelOffset}
	}
	u := asn % n.cfg.UnicastFrameLen
	if n.parent != 0 {
		for _, c := range n.txCells {
			if c == u {
				return mac.Assignment{Role: mac.RoleTxData, ChannelOffset: unicastLane(n.id), Attempt: 1}
			}
		}
	}
	if c, ok := n.childCells.At(u, &n.childHint); ok {
		return mac.Assignment{Role: mac.RoleRxData, ChannelOffset: unicastLane(c)}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

// OnSynced implements mac.Protocol.
func (n *Node) OnSynced(asn sim.ASN) {
	n.synced = true
	n.tr.Start(asn)
	n.nextSolicit = asn + 500 + sim.ASN(n.rng.Intn(500))
}

// DIOPayload returns what the node's beacons and DIOs carry: the RPL join
// metric followed by the stack's option bytes, or nil while the node has
// nothing to advertise.
func (n *Node) DIOPayload(option ...byte) []byte {
	adv, ok := n.router.Advertisement()
	if !ok {
		return nil
	}
	return append(adv.Marshal(), option...)
}

// OnFrame feeds a received frame to the router and the Trickle timer.
// Beacons and DIOs carry optionLen option bytes behind the advertisement;
// they are returned when the frame held a well-formed DIO, nil otherwise.
func (n *Node) OnFrame(asn sim.ASN, f *sim.Frame, rssi float64, optionLen int) (option []byte) {
	switch f.Kind {
	case sim.KindEB, sim.KindJoinIn: // a DIO, in a beacon or on its own
		if len(f.Payload) == dioSize+optionLen {
			if d, err := UnmarshalDIO(f.Payload[:dioSize]); err == nil {
				if n.router.OnDIO(asn, f.Src, d, rssi) {
					n.Readvertise(asn)
				} else if f.Kind == sim.KindJoinIn {
					n.tr.Hear()
				}
				return f.Payload[dioSize:]
			}
		}
		if f.Kind == sim.KindEB {
			n.router.Observe(f.Src, rssi)
		}
	case sim.KindSolicit:
		n.router.Observe(f.Src, rssi)
		if n.router.Joined() {
			n.tr.Reset(asn)
		}
	case sim.KindData:
		n.router.Observe(f.Src, rssi)
	}
	return nil
}

// SharedFrame is what the node sends in a shared slot: DIS solicitation
// when parentless, Trickle-latched DIOs (with the stack's option bytes)
// otherwise, both behind a persistence coin.
func (n *Node) SharedFrame(asn sim.ASN, option ...byte) (*sim.Frame, bool) {
	if n.synced && !n.router.Joined() {
		if asn >= n.nextSolicit {
			n.nextSolicit = asn + 1000 + sim.ASN(n.rng.Intn(500))
			return &sim.Frame{Kind: sim.KindSolicit, Src: n.id, Dst: topology.Broadcast}, false
		}
		return nil, false
	}
	if !n.wantDIO || n.rng.Intn(2) == 1 {
		return nil, false
	}
	n.wantDIO = false
	payload := n.DIOPayload(option...)
	if payload == nil {
		return nil, false
	}
	return &sim.Frame{Kind: sim.KindJoinIn, Src: n.id, Dst: topology.Broadcast, Payload: payload}, false
}

// NextHop implements mac.Protocol: always the single preferred parent —
// RPL has no backup route, which is exactly what the paper's comparison
// exercises.
func (n *Node) NextHop(sim.ASN, int) (topology.NodeID, bool) {
	p := n.router.Parent()
	return p, p != 0
}

// OnTxResult implements mac.Protocol: the outcome feeds the RPL link
// estimator. Unicast cells are dedicated, so there is no contention
// backoff: a retransmission goes out in the sender's next cell.
func (n *Node) OnTxResult(asn sim.ASN, _ *sim.Frame, to topology.NodeID, acked bool) {
	if n.router.OnTxResult(asn, to, acked) {
		n.Readvertise(asn)
	}
}
