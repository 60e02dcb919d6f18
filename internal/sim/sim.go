// Package sim is the slot-synchronous discrete-event engine the whole
// reproduction runs on. TSCH divides time into 10 ms slots, so the engine
// advances one slot at a time: it asks every attached device what its radio
// does this slot (transmit, listen, scan, sleep), resolves the shared
// medium (propagation, collisions, capture, interference, ACKs) and
// reports the outcome back to each device — except that a device which can
// name its next active slot (Napper) is left alone until then. All
// randomness flows from one seed, so every run is exactly reproducible.
package sim

import (
	"time"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// ASN is the absolute slot number since network start (TSCH terminology).
type ASN = int64

// SlotsFor converts a wall-clock duration into a slot count.
func SlotsFor(d time.Duration) int64 {
	return int64(d / phy.SlotDuration)
}

// TimeAt converts an absolute slot number into elapsed network time.
func TimeAt(asn ASN) time.Duration {
	return time.Duration(asn) * phy.SlotDuration
}

// FrameKind tags the protocol meaning of a frame. Kinds are defined here so
// the engine can stay protocol-agnostic while traces remain readable.
type FrameKind uint8

// Frame kinds used across the stacks in this repository.
const (
	// KindEB is a TSCH enhanced beacon (time synchronisation).
	KindEB FrameKind = iota + 1
	// KindJoinIn is a DiGS join-in routing beacon (or an RPL DIO for the
	// baseline stacks).
	KindJoinIn
	// KindJoinedCallback is a DiGS joined-callback (or an RPL DAO).
	KindJoinedCallback
	// KindData is an application data packet.
	KindData
	// KindCommand is a WirelessHART management command (topology report
	// request/response, route or schedule update).
	KindCommand
	// KindSolicit is a routing solicitation (RPL DIS equivalent): a
	// synchronised but not-yet-joined node asking neighbours to
	// re-advertise promptly.
	KindSolicit
	// KindReport is an SDN link-state report: a node's observed neighbour
	// list riding hop-by-hop toward the centralized controller.
	KindReport
	// KindConfig is an SDN configuration push: the controller's computed
	// route/schedule assignment for one node, source-routed in-band.
	KindConfig
)

// Frame is one link-layer frame. Protocol state rides in Payload using each
// protocol's wire format.
type Frame struct {
	Kind FrameKind
	Src  topology.NodeID
	Dst  topology.NodeID // topology.Broadcast for broadcasts
	Seq  uint16

	// Origin and FlowID identify the application packet end-to-end for
	// data frames (they survive multi-hop forwarding).
	Origin topology.NodeID
	FlowID uint16

	// BornASN is the slot the application packet was generated in, used
	// for end-to-end latency accounting.
	BornASN ASN

	// Route carries path information: for data frames, the hops recorded
	// on the way up (gateways learn topology from it); for command
	// frames, the remaining source route to the destination.
	Route []topology.NodeID

	Payload []byte
}

// Broadcast reports whether the frame is a link-layer broadcast.
func (f *Frame) Broadcast() bool { return f.Dst == topology.Broadcast }

// OpKind says what a device's radio does during one slot.
type OpKind int

// Radio operations.
const (
	// OpSleep keeps the radio off.
	OpSleep OpKind = iota + 1
	// OpTx transmits Frame on Channel.
	OpTx
	// OpRx listens on Channel for the slot's guard window.
	OpRx
	// OpScan listens for the whole slot (unsynchronised joining): on
	// Channel when set, or across the whole band when Channel is zero.
	OpScan
)

// RadioOp is a device's plan for one slot.
type RadioOp struct {
	Kind    OpKind
	Channel phy.Channel
	Frame   *Frame // OpTx only
	NeedAck bool   // OpTx unicast frames that expect an ACK
	// ChannelOffset is the schedule lane the slot was planned from (the
	// hopping offset that produced Channel). The engine ignores it; the
	// telemetry subsystem reads it back to name the schedule cell a
	// transmission attempt used.
	ChannelOffset uint8
}

// Sleep is the zero-cost plan.
func Sleep() RadioOp { return RadioOp{Kind: OpSleep} }

// SlotReport is what actually happened to a device during one slot.
type SlotReport struct {
	Op RadioOp

	// Received is the frame delivered to this device this slot, nil if
	// none. RSSI is its received strength.
	Received *Frame
	RSSI     float64

	// Acked is set for transmitters of NeedAck frames whose ACK came back.
	Acked bool

	// Collision is set for listeners that detected energy but could not
	// decode any frame (concurrent transmissions or interference).
	Collision bool

	// Activity is the radio energy class of the slot.
	Activity phy.SlotActivity
}

// Device is one protocol stack instance attached to the network.
type Device interface {
	// ID returns the device's node ID in the topology.
	ID() topology.NodeID
	// Plan is called at the start of each slot and returns the radio
	// operation for the slot.
	Plan(asn ASN) RadioOp
	// EndSlot is called after the medium resolves the slot.
	EndSlot(asn ASN, report SlotReport)
}

// Interferer is an external interference source (jammer, disturber). It is
// an interface so the interference package can implement JamLab-style
// models without the engine depending on them.
type Interferer interface {
	// ActiveOn reports whether the interferer radiates on the given
	// channel during the given slot. It must be deterministic: the engine
	// may query it several times per slot.
	ActiveOn(asn ASN, ch phy.Channel) bool
	// PowerAtDBm returns the interference power received at the given
	// node, or a value below the noise floor when out of range.
	PowerAtDBm(at topology.NodeID) float64
}

// TraceEvent is an observation hook record for experiment instrumentation.
type TraceEvent struct {
	ASN     ASN
	Kind    TraceKind
	Src     topology.NodeID
	Dst     topology.NodeID
	Frame   *Frame
	Channel phy.Channel
	// RSS is the received signal strength of a delivery, dBm (TraceDeliver
	// only).
	RSS float64
}

// TraceKind classifies trace events.
type TraceKind int

// Trace kinds.
const (
	// TraceTx records a transmission attempt.
	TraceTx TraceKind = iota + 1
	// TraceDeliver records a successful frame delivery.
	TraceDeliver
	// TraceCollision records a listener observing a collision.
	TraceCollision
)
