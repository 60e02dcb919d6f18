// Package mac implements the TSCH medium access layer shared by every
// protocol stack in this repository: dedicated and shared slots, channel
// hopping, enhanced-beacon time synchronisation, per-packet
// retransmission, duplicate suppression and radio energy accounting.
// Protocols (DiGS, Orchestra, adaptive, WirelessHART, sdn) plug in through
// the Protocol interface. Each combines its own slotframes by priority, as
// the paper's Section VI does, written out in its Assignment: the MAC asks
// for one decision per slot and executes it. Cells, Dist and NextOffset
// are the frame arithmetic the stacks share.
package mac

import (
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// SlotRole says what a node does in a slot of its combined schedule.
type SlotRole int

// Slot roles.
const (
	// RoleSleep keeps the radio off.
	RoleSleep SlotRole = iota + 1
	// RoleTxEB broadcasts an enhanced beacon.
	RoleTxEB
	// RoleRxEB listens for the time-source neighbour's beacon.
	RoleRxEB
	// RoleShared is a shared slot: transmit a pending routing frame or
	// listen (CSMA-style contention happens naturally on the medium).
	RoleShared
	// RoleTxData transmits the head-of-queue data packet.
	RoleTxData
	// RoleRxData listens for a data packet.
	RoleRxData
)

// Assignment is the resolved decision for one slot.
type Assignment struct {
	Role SlotRole
	// ChannelOffset selects the hopping sequence lane.
	ChannelOffset uint8
	// Attempt numbers the transmission attempt within the slotframe for
	// RoleTxData (1-based); DiGS routes attempt 3 over the backup parent.
	Attempt int
}

// Protocol is the routing/scheduling brain a MAC node executes. All calls
// happen from the simulation loop, never concurrently.
type Protocol interface {
	// Assignment returns the node's combined-schedule decision for the
	// slot. Only called once the node is synchronised.
	Assignment(asn sim.ASN) Assignment

	// NextActive returns the earliest slot at or after `after` in which
	// Assignment must be called: one holding a cell of the node's schedule
	// — a listen or shared cell whether or not anything is heard or sent in
	// it, so side effects of looking a cell up happen on the slots they
	// always did — or the deadline of one of the protocol's timers. queued
	// reports whether the MAC holds data to send. When it is false the
	// node's own RoleTxData cells are left out: the MAC plans sleep in them
	// without asking the protocol anything, and data only enters an empty
	// queue through a frame the node receives while awake or through a
	// caller that wakes the node first (Network.Wake), after which the MAC
	// asks again. The engine skips the Assignment calls before the answer,
	// so for every slot in between Assignment must return RoleSleep — or,
	// when queued is false, the node's own RoleTxData — and leave the
	// protocol's state untouched. Returning a slot early is harmless (the
	// node wakes, plans sleep, naps again), returning one late makes the
	// node sleep through its own cells; a protocol that cannot tell returns
	// `after`.
	NextActive(after sim.ASN, queued bool) sim.ASN

	// OnSynced tells the protocol the node has joined the TSCH network
	// (heard its first EB) and may begin routing.
	OnSynced(asn sim.ASN)

	// EBPayload returns the routing metadata to embed in this node's
	// enhanced beacons (the 802.15.4e join metric: rank and path cost),
	// or nil for none.
	EBPayload() []byte

	// OnFrame delivers a received protocol or data frame for routing-state
	// updates (parent selection, link estimation). Data frames are also
	// handled by the MAC (forwarding); protocols typically use them only
	// to refresh link statistics.
	OnFrame(asn sim.ASN, f *sim.Frame, rssiDBm float64)

	// SharedFrame returns the routing frame to transmit in a shared slot,
	// or nil to listen instead. NeedAck is true for unicast control
	// frames.
	SharedFrame(asn sim.ASN) (f *sim.Frame, needAck bool)

	// NextHop returns the forwarding destination for the given data
	// transmission attempt (1-based) in the given slot, or false when the
	// node has no route.
	NextHop(asn sim.ASN, attempt int) (topology.NodeID, bool)

	// OnTxResult reports the outcome of a unicast transmission so the
	// protocol can update link estimates and trigger repairs.
	OnTxResult(asn sim.ASN, f *sim.Frame, to topology.NodeID, acked bool)
}
