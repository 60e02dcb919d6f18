package mac

import (
	"fmt"
	"math"
	"time"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// Config tunes MAC behaviour.
type Config struct {
	// QueueCap bounds the data forwarding queue (TelosB-class memory); a
	// packet arriving at a full queue is dropped.
	QueueCap int
	// MaxTxPerPacket bounds total transmission attempts before a data
	// packet is dropped.
	MaxTxPerPacket int
	// DownlinkFrameLen enables the downlink command slotframe when
	// positive: every node listens once per frame in a slot derived from
	// its ID, and source-routed commands ride the slots the protocol
	// schedule leaves idle. Zero disables downlink entirely.
	DownlinkFrameLen int
}

// DefaultConfig returns the MAC configuration used across the evaluation.
func DefaultConfig() Config {
	return Config{QueueCap: 16, MaxTxPerPacket: 30}
}

// Stats aggregates a node's lifetime counters for the energy, duty-cycle
// and loss metrics.
type Stats struct {
	EnergyJoules  float64
	RadioOnTime   time.Duration
	Slots         int64
	TxData        int64
	TxControl     int64
	RxFrames      int64
	Generated     int64
	Forwarded     int64
	SinkDelivered int64
	// CommandsDelivered counts downlink commands that reached this node as
	// their destination.
	CommandsDelivered int64
	DroppedQueue      int64
	DroppedRetries    int64
	Duplicates        int64
}

// DutyCycle returns the fraction of elapsed time the radio was on.
func (s Stats) DutyCycle() float64 {
	if s.Slots == 0 {
		return 0
	}
	return float64(s.RadioOnTime) / float64(time.Duration(s.Slots)*phy.SlotDuration)
}

type seenKey struct {
	origin topology.NodeID
	flow   uint16
	seq    uint16
}

type queuedPacket struct {
	frame   *sim.Frame
	txCount int
	// from is the neighbour this packet was received from (0 when locally
	// generated). Split-horizon rule: never forward a packet back to the
	// node it came from — transient routing loops would otherwise bounce
	// it until duplicate suppression eats it.
	from topology.NodeID
	// blocked counts transmit opportunities skipped by split horizon; a
	// packet stuck behind it for too long is dropped (the route never
	// recovered).
	blocked int
}

// maxBlockedOpportunities bounds how long split horizon may park a packet.
const maxBlockedOpportunities = 90

// Node is one TSCH device: it executes a Protocol's schedule, manages the
// data queue with retransmissions and duplicate suppression, performs EB
// time synchronisation and accounts radio energy. It implements
// sim.Device.
type Node struct {
	id    topology.NodeID
	isAP  bool
	proto Protocol
	cfg   Config

	synced   bool
	syncedAt sim.ASN
	// lastRx is the last slot any frame was decoded — the liveness signal
	// the invariant monitor's desync check probes (EBs keep it fresh on a
	// healthy node even when no data flows).
	lastRx sim.ASN

	queue []queuedPacket
	seen  map[seenKey]struct{}

	// downQueue holds source-routed downlink commands in transit.
	downQueue []queuedPacket
	downSeq   uint16

	stats Stats

	// Sink receives data frames arriving at an access point. Experiments
	// set it on AP nodes.
	Sink func(asn sim.ASN, f *sim.Frame)

	// CommandSink receives downlink commands addressed to this node.
	CommandSink func(asn sim.ASN, f *sim.Frame)

	// OnSync, when set, runs when the node synchronises on a received
	// frame, after the protocol's OnSynced. (An access point starts
	// synchronised; Reboot and RestoreState change sync without it.)
	OnSync func()

	// tracer, when non-nil, receives a packet-lifecycle event per
	// generation, enqueue, transmission attempt, reception and drop. The
	// disabled path is a single nil check per hook point.
	tracer telemetry.Tracer
}

var _ sim.Device = (*Node)(nil)

// NewNode creates a MAC node for the given protocol. Access points start
// synchronised: they are the network's time source.
func NewNode(id topology.NodeID, isAP bool, proto Protocol, cfg Config) *Node {
	n := &Node{
		id:    id,
		isAP:  isAP,
		proto: proto,
		cfg:   cfg,
		seen:  make(map[seenKey]struct{}),
	}
	if isAP {
		n.synced = true
		proto.OnSynced(0)
	}
	return n
}

// ID implements sim.Device.
func (n *Node) ID() topology.NodeID { return n.id }

// IsAP reports whether the node is an access point.
func (n *Node) IsAP() bool { return n.isAP }

// Synced reports whether the node has joined the TSCH network, and since
// which slot.
func (n *Node) Synced() (bool, sim.ASN) { return n.synced, n.syncedAt }

// Stats returns a copy of the node's counters. While the engine has the
// node napping, Slots, EnergyJoules and RadioOnTime lag by the slots slept
// so far; they catch up when it wakes or on sim.Network.SettleNaps.
func (n *Node) Stats() Stats { return n.stats }

// SetTracer installs (or with nil removes) the packet-lifecycle tracer.
func (n *Node) SetTracer(t telemetry.Tracer) { n.tracer = t }

// QueueLen returns the current data queue depth.
func (n *Node) QueueLen() int { return len(n.queue) }

// LastRx returns the last slot the node decoded any frame (0 if never).
func (n *Node) LastRx() sim.ASN { return n.lastRx }

// InjectData queues a locally generated application packet. The caller
// fills Origin, FlowID, Seq and BornASN. A napping node with an empty queue
// did not schedule a wake for its own transmit cells (Protocol.NextActive
// with queued false), so the caller wakes it first (sim.Network.Wake);
// otherwise the packet waits for the node's next active slot.
func (n *Node) InjectData(f *sim.Frame) error {
	n.stats.Generated++
	f.Kind = sim.KindData
	if n.tracer != nil {
		n.tracer.Record(telemetry.Event{
			ASN: f.BornASN, Type: telemetry.EvGenerated, Node: n.id,
			Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq,
			Kind: uint8(f.Kind), Queue: int16(len(n.queue)), Born: f.BornASN,
		})
	}
	if len(n.queue) >= n.cfg.QueueCap {
		n.stats.DroppedQueue++
		if n.tracer != nil {
			n.tracer.Record(telemetry.Event{
				ASN: f.BornASN, Type: telemetry.EvDropped, Node: n.id,
				Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
				Reason: telemetry.ReasonQueueFull, Queue: int16(len(n.queue)), Born: f.BornASN,
			})
		}
		return fmt.Errorf("node %d: data queue full", n.id)
	}
	n.queue = append(n.queue, queuedPacket{frame: f})
	if n.tracer != nil {
		n.tracer.Record(telemetry.Event{
			ASN: f.BornASN, Type: telemetry.EvEnqueued, Node: n.id,
			Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
			Queue: int16(len(n.queue)), Born: f.BornASN,
		})
	}
	return nil
}

// scanDwellSlots is how long a joining node camps on one channel before
// rotating to the next (a 5 s dwell, standard passive-scan behaviour).
const scanDwellSlots = 500

// Plan implements sim.Device.
func (n *Node) Plan(asn sim.ASN) sim.RadioOp {
	if !n.synced {
		return n.scanOp(asn)
	}
	a := n.proto.Assignment(asn)
	op := n.planProtocol(asn, a)
	if op.Kind != sim.OpSleep {
		return op
	}
	if n.cfg.DownlinkFrameLen > 0 {
		return n.planDownlink(asn)
	}
	return op
}

// scanOp is the passive scan of an unsynchronised node: camp on one channel
// at a time, the same for a whole dwell. Beacons hop, so the scanner
// statistically catches one after a few EB periods.
func (n *Node) scanOp(asn sim.ASN) sim.RadioOp {
	idx := (int64(n.id)*7 + asn/scanDwellSlots) % phy.NumChannels
	return sim.RadioOp{Kind: sim.OpScan, Channel: phy.DefaultHoppingSequence[idx]}
}

// planProtocol turns the protocol's slot assignment into a radio
// operation.
func (n *Node) planProtocol(asn sim.ASN, a Assignment) sim.RadioOp {
	switch a.Role {
	case RoleTxEB:
		return sim.RadioOp{
			Kind:    sim.OpTx,
			Channel: phy.HopChannel(asn, a.ChannelOffset),
			Frame: &sim.Frame{
				Kind:    sim.KindEB,
				Src:     n.id,
				Dst:     topology.Broadcast,
				Payload: n.proto.EBPayload(),
			},
			ChannelOffset: a.ChannelOffset,
		}
	case RoleRxEB, RoleRxData:
		return sim.RadioOp{Kind: sim.OpRx, Channel: phy.HopChannel(asn, a.ChannelOffset),
			ChannelOffset: a.ChannelOffset}
	case RoleShared:
		f, needAck := n.proto.SharedFrame(asn)
		if f == nil {
			return sim.RadioOp{Kind: sim.OpRx, Channel: phy.HopChannel(asn, a.ChannelOffset),
				ChannelOffset: a.ChannelOffset}
		}
		f.Src = n.id
		return sim.RadioOp{
			Kind:          sim.OpTx,
			Channel:       phy.HopChannel(asn, a.ChannelOffset),
			Frame:         f,
			NeedAck:       needAck && f.Dst != topology.Broadcast,
			ChannelOffset: a.ChannelOffset,
		}
	case RoleTxData:
		if len(n.queue) == 0 {
			return sim.Sleep()
		}
		hop, ok := n.proto.NextHop(asn, a.Attempt)
		if !ok {
			return sim.Sleep()
		}
		head := &n.queue[0]
		if hop == head.from {
			// Split horizon: wait for an attempt that goes elsewhere.
			head.blocked++
			if head.blocked >= maxBlockedOpportunities {
				n.stats.DroppedRetries++
				if n.tracer != nil {
					f := head.frame
					n.tracer.Record(telemetry.Event{
						ASN: asn, Type: telemetry.EvDropped, Node: n.id,
						Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
						Reason: telemetry.ReasonSplitHorizon,
						Queue:  int16(len(n.queue) - 1), Born: f.BornASN,
					})
				}
				n.queue = n.queue[1:]
			}
			return sim.Sleep()
		}
		head.frame.Src = n.id
		head.frame.Dst = hop
		return sim.RadioOp{
			Kind:          sim.OpTx,
			Channel:       phy.HopChannel(asn, a.ChannelOffset),
			Frame:         head.frame,
			NeedAck:       true,
			ChannelOffset: a.ChannelOffset,
		}
	default:
		return sim.Sleep()
	}
}

// EndSlot implements sim.Device.
func (n *Node) EndSlot(asn sim.ASN, rep sim.SlotReport) {
	n.stats.Slots++
	n.stats.EnergyJoules += phy.EnergyJoules(rep.Activity)
	n.stats.RadioOnTime += phy.RadioOnTime(rep.Activity)

	if rep.Received != nil {
		n.receive(asn, rep.Received, rep.RSSI)
	}
	if rep.Op.Kind == sim.OpTx && rep.Op.Frame != nil {
		n.txDone(asn, rep.Op, rep.Acked)
	}
}

func (n *Node) receive(asn sim.ASN, f *sim.Frame, rssi float64) {
	n.stats.RxFrames++
	n.lastRx = asn
	if !n.synced {
		// EBs are the canonical sync source; broadcast routing beacons
		// are periodic enough to serve as one too (they carry the same
		// timeslot template in 802.15.4e networks).
		if f.Kind != sim.KindEB && f.Kind != sim.KindJoinIn {
			return
		}
		n.synced = true
		n.syncedAt = asn
		n.proto.OnSynced(asn)
		if n.OnSync != nil {
			n.OnSync()
		}
	}
	n.proto.OnFrame(asn, f, rssi)
	if f.Kind == sim.KindCommand {
		n.receiveCommand(asn, f)
		return
	}
	if f.Kind != sim.KindData {
		return
	}

	// hop counts the links this frame has crossed: the hops recorded in
	// its route plus the link it just arrived over.
	hop := uint8(len(f.Route) + 1)
	if n.tracer != nil {
		n.tracer.Record(telemetry.Event{
			ASN: asn, Type: telemetry.EvReceived, Node: n.id, Peer: f.Src,
			Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
			Hop: hop, RSS: rssi, Queue: int16(len(n.queue)), Born: f.BornASN,
		})
	}

	key := seenKey{origin: f.Origin, flow: f.FlowID, seq: f.Seq}
	if _, dup := n.seen[key]; dup {
		n.stats.Duplicates++
		if n.tracer != nil {
			n.tracer.Record(telemetry.Event{
				ASN: asn, Type: telemetry.EvDropped, Node: n.id, Peer: f.Src,
				Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
				Hop: hop, Reason: telemetry.ReasonDuplicate,
				Queue: int16(len(n.queue)), Born: f.BornASN,
			})
		}
		return
	}
	n.seen[key] = struct{}{}

	if n.isAP {
		n.stats.SinkDelivered++
		if n.tracer != nil {
			n.tracer.Record(telemetry.Event{
				ASN: asn, Type: telemetry.EvDelivered, Node: n.id, Peer: f.Src,
				Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
				Hop: hop, Born: f.BornASN,
			})
		}
		if n.Sink != nil {
			n.Sink(asn, f)
		}
		return
	}
	// Forward: copy the end-to-end identity into a fresh frame owned by
	// this node's queue.
	if len(n.queue) >= n.cfg.QueueCap {
		n.stats.DroppedQueue++
		if n.tracer != nil {
			n.tracer.Record(telemetry.Event{
				ASN: asn, Type: telemetry.EvDropped, Node: n.id, Peer: f.Src,
				Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
				Hop: hop, Reason: telemetry.ReasonQueueFull,
				Queue: int16(len(n.queue)), Born: f.BornASN,
			})
		}
		return
	}
	fwd := &sim.Frame{
		Kind:    sim.KindData,
		Origin:  f.Origin,
		FlowID:  f.FlowID,
		Seq:     f.Seq,
		BornASN: f.BornASN,
		Payload: f.Payload,
		// Record route: gateways learn downlink paths from the hops data
		// frames accumulate on the way up.
		Route: append(append([]topology.NodeID(nil), f.Route...), f.Src),
	}
	n.queue = append(n.queue, queuedPacket{frame: fwd, from: f.Src})
	n.stats.Forwarded++
	if n.tracer != nil {
		n.tracer.Record(telemetry.Event{
			ASN: asn, Type: telemetry.EvEnqueued, Node: n.id, Peer: f.Src,
			Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
			Hop: hop, Queue: int16(len(n.queue)), Born: f.BornASN,
		})
	}
}

func (n *Node) txDone(asn sim.ASN, op sim.RadioOp, acked bool) {
	f := op.Frame
	if f.Kind == sim.KindCommand {
		n.stats.TxData++
		n.traceTx(asn, op, acked, 0, int16(len(n.downQueue)))
		n.downlinkTxDone(asn, acked)
		return
	}
	if f.Kind == sim.KindData {
		n.stats.TxData++
		if len(n.queue) == 0 || n.queue[0].frame != f {
			return // queue changed underneath (should not happen)
		}
		n.traceTx(asn, op, acked, uint16(n.queue[0].txCount+1), int16(len(n.queue)))
		n.proto.OnTxResult(asn, f, f.Dst, acked)
		if acked {
			n.queue = n.queue[1:]
			return
		}
		n.queue[0].txCount++
		if n.queue[0].txCount >= n.cfg.MaxTxPerPacket {
			n.stats.DroppedRetries++
			if n.tracer != nil {
				n.tracer.Record(telemetry.Event{
					ASN: asn, Type: telemetry.EvDropped, Node: n.id, Peer: f.Dst,
					Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
					Attempt: uint16(n.queue[0].txCount),
					Reason:  telemetry.ReasonMaxRetries,
					Queue:   int16(len(n.queue) - 1), Born: f.BornASN,
				})
			}
			n.queue = n.queue[1:]
		}
		return
	}
	n.stats.TxControl++
	n.traceTx(asn, op, acked, 0, int16(len(n.queue)))
	if op.NeedAck {
		n.proto.OnTxResult(asn, f, f.Dst, acked)
	}
}

// NextWake implements sim.Napper: it reports the next slot this node
// could plan anything but what it names. An unsynchronised node stands on
// its dwell's scan until the dwell ends — the engine rouses it when a frame
// arrives. A synchronised node sleeps until its protocol's next active
// slot, told whether the data queue holds anything: queued data leaves only
// in the node's own transmit cells, which NextActive reports while the
// queue is non-empty and leaves out while it is empty, because planProtocol
// answers a transmit cell with an empty queue with sleep. The queue fills
// only in EndSlot, after which the engine asks again, or from outside the
// radio path — InjectData, a reboot — whose callers go through
// Network.Wake first. Downlink commands in transit keep the node awake, as
// does the optional downlink slotframe, whose cells depend on frames other
// nodes may send.
func (n *Node) NextWake(asn sim.ASN) (sim.ASN, sim.RadioOp) {
	switch {
	case !n.synced:
		return ((asn+1)/scanDwellSlots + 1) * scanDwellSlots, n.scanOp(asn + 1)
	case len(n.downQueue) > 0 || n.cfg.DownlinkFrameLen > 0:
		return asn + 1, sim.Sleep()
	}
	return max(n.proto.NextActive(asn+1, len(n.queue) > 0), asn+1), sim.Sleep()
}

// AccrueNap implements sim.Napper: it settles the per-slot accounting for
// slots the engine skipped while this node napped, bit-identical to a run
// where EndSlot saw each of them with an empty report of that activity.
func (n *Node) AccrueNap(slots int64, activity phy.SlotActivity) {
	n.stats.EnergyJoules = addRepeated(n.stats.EnergyJoules, phy.EnergyJoules(activity), slots)
	n.stats.Slots += slots
	n.stats.RadioOnTime += time.Duration(slots) * phy.RadioOnTime(activity)
}

// addRepeated returns what `acc += e`, k times over, leaves in acc — the
// same bits, without the loop. While acc stays inside one binade its ulp u
// is fixed, so each addition rounds acc + e to a multiple of u, and unless
// e's remainder modulo u is exactly u/2 (a tie, broken by the parity of
// acc's mantissa) it rounds the same way every time: the mantissa advances
// by the same integer step d, and n additions are one multiply-add on it.
// Ties, binade crossings, acc < e, subnormals, zeros, negatives and
// non-finite values take the plain step.
func addRepeated(acc, e float64, k int64) float64 {
	const mantBits, mantMask = 52, 1<<52 - 1
	for k > 0 {
		bits := math.Float64bits(acc)
		exp := bits >> mantBits // sign bit included: zero, since acc >= e > 0
		if !(acc >= e && e > 0) || exp <= mantBits || exp >= 0x7ff {
			acc += e // also when acc's ulp would be subnormal
			k--
			continue
		}
		u := math.Float64frombits((exp - mantBits) << mantBits) // acc's ulp, a power of two
		q := math.Floor(e / u)                                  // exact: a power-of-two scaling below 2^53
		r, d := e-q*u, uint64(q)                                // exact: r < u keeps fewer bits than e
		if r == u/2 {
			acc += e
			k--
			continue
		}
		if r > u/2 {
			d++
		}
		if d == 0 {
			return acc // e is under half an ulp: no addition changes acc
		}
		m := bits&mantMask | 1<<mantBits
		n := min(uint64(k), (1<<(mantBits+1)-1-m)/d) // steps that stay inside the binade
		if n == 0 {
			acc += e
			k--
			continue
		}
		acc = math.Float64frombits(exp<<mantBits | (m+n*d)&mantMask)
		k -= int64(n)
	}
	return acc
}

// Resetter is optionally implemented by protocols that can discard their
// routing state for a cold reboot (see Node.Reboot with state loss).
type Resetter interface {
	// Reset returns the protocol to its just-constructed state, keeping
	// only identity and configuration (and any installed callbacks).
	Reset()
}

// Reboot cold-restarts the node at the given slot: the data and downlink
// queues and the duplicate table are lost, and non-AP nodes come back
// unsynchronised (the slot clock does not survive a reboot) —
// they must re-hear a beacon. Access points remain the time source.
// When loseState is true the protocol's routing state is also discarded
// (if it implements Resetter), so the node rejoins from scratch rather
// than resuming its old schedule and parents from persistent storage.
func (n *Node) Reboot(asn sim.ASN, loseState bool) {
	n.queue = nil
	n.downQueue = nil
	n.seen = make(map[seenKey]struct{})
	n.lastRx = asn
	if loseState {
		if r, ok := n.proto.(Resetter); ok {
			r.Reset()
		}
	}
	if n.isAP {
		n.syncedAt = asn
		if loseState {
			n.proto.OnSynced(asn)
		}
	} else {
		n.synced = false
	}
}

// traceTx emits the transmission-attempt event for any frame kind. The
// disabled path is the nil check; attempt is 0 for frames the MAC does
// not retransmit from the data queue.
func (n *Node) traceTx(asn sim.ASN, op sim.RadioOp, acked bool, attempt uint16, queue int16) {
	if n.tracer == nil {
		return
	}
	f := op.Frame
	n.tracer.Record(telemetry.Event{
		ASN: asn, Type: telemetry.EvTxAttempt, Node: n.id, Peer: f.Dst,
		Origin: f.Origin, Flow: f.FlowID, Seq: f.Seq, Kind: uint8(f.Kind),
		Attempt: attempt, Channel: uint8(op.Channel), ChOff: op.ChannelOffset,
		Acked: acked, Queue: queue, Born: f.BornASN,
	})
}
