package mac

import (
	"fmt"
	"sort"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// FrameState is a sim.Frame as plain old data, including the link-layer
// Src/Dst a queued frame carries from its last transmission plan.
type FrameState struct {
	Kind    uint8
	Src     topology.NodeID
	Dst     topology.NodeID
	Seq     uint16
	Origin  topology.NodeID
	FlowID  uint16
	BornASN int64
	Route   []topology.NodeID
	Payload []byte
}

func captureFrame(f *sim.Frame) FrameState {
	return FrameState{
		Kind: uint8(f.Kind), Src: f.Src, Dst: f.Dst, Seq: f.Seq,
		Origin: f.Origin, FlowID: f.FlowID, BornASN: f.BornASN,
		Route: f.Route, Payload: f.Payload,
	}
}

// restore materialises a fresh frame; Route and Payload are copied so
// branched restores from one snapshot never share mutable slices.
func (fs FrameState) restore() *sim.Frame {
	f := &sim.Frame{
		Kind: sim.FrameKind(fs.Kind), Src: fs.Src, Dst: fs.Dst, Seq: fs.Seq,
		Origin: fs.Origin, FlowID: fs.FlowID, BornASN: fs.BornASN,
	}
	if fs.Route != nil {
		f.Route = append([]topology.NodeID(nil), fs.Route...)
	}
	if fs.Payload != nil {
		f.Payload = append([]byte(nil), fs.Payload...)
	}
	return f
}

// CaptureFrame exports captureFrame for protocol stacks that checkpoint
// frames of their own (e.g. the SDN control queue).
func CaptureFrame(f *sim.Frame) FrameState { return captureFrame(f) }

// Restore exports restore for the same callers.
func (fs FrameState) Restore() *sim.Frame { return fs.restore() }

// Code walks the frame in its snapshot wire form.
func (fs *FrameState) Code(c *wire.Coder) {
	c.U8(&fs.Kind)
	wire.Uvarint(c, &fs.Src)
	wire.Uvarint(c, &fs.Dst)
	c.U16(&fs.Seq)
	wire.Uvarint(c, &fs.Origin)
	c.U16(&fs.FlowID)
	c.I64(&fs.BornASN)
	wire.Slice(c, &fs.Route, 1, func(hop *topology.NodeID) { wire.Uvarint(c, hop) })
	c.Bytes(&fs.Payload)
}

// PacketState is one queued packet (data or downlink command).
type PacketState struct {
	Frame   FrameState
	TxCount int
	From    topology.NodeID
	Blocked int
}

// SeenKeyState is one duplicate-suppression entry. Flow 0xFFFF marks
// downlink commands, mirroring the in-memory convention.
type SeenKeyState struct {
	Origin topology.NodeID
	Flow   uint16
	Seq    uint16
}

// NodeState is the complete mutable MAC state of one node. Identity,
// configuration, protocol wiring and sink callbacks are construction-time
// and excluded: a restore overlays this onto a node freshly built by the
// same deterministic build path.
type NodeState struct {
	Synced    bool
	SyncedAt  int64
	LastRx    int64
	Queue     []PacketState
	DownQueue []PacketState
	Seen      []SeenKeyState // sorted by (origin, flow, seq)
	DownSeq   uint16
	Stats     Stats
}

func capturePackets(q []queuedPacket) []PacketState {
	if len(q) == 0 {
		return nil
	}
	out := make([]PacketState, len(q))
	for i, p := range q {
		out[i] = PacketState{Frame: captureFrame(p.frame), TxCount: p.txCount,
			From: p.from, Blocked: p.blocked}
	}
	return out
}

func restorePackets(ps []PacketState) []queuedPacket {
	if len(ps) == 0 {
		return nil
	}
	out := make([]queuedPacket, len(ps))
	for i, p := range ps {
		out[i] = queuedPacket{frame: p.Frame.restore(), txCount: p.TxCount,
			from: p.From, blocked: p.Blocked}
	}
	return out
}

// CaptureState snapshots the node's mutable state. The duplicate table is
// emitted in sorted order so the wire form is stable across runs.
func (n *Node) CaptureState() *NodeState {
	st := &NodeState{
		Synced:    n.synced,
		SyncedAt:  n.syncedAt,
		LastRx:    n.lastRx,
		Queue:     capturePackets(n.queue),
		DownQueue: capturePackets(n.downQueue),
		DownSeq:   n.downSeq,
		Stats:     n.stats,
	}
	if len(n.seen) > 0 {
		st.Seen = make([]SeenKeyState, 0, len(n.seen))
		for k := range n.seen {
			st.Seen = append(st.Seen, SeenKeyState{Origin: k.origin, Flow: k.flow, Seq: k.seq})
		}
		sort.Slice(st.Seen, func(i, j int) bool {
			a, b := st.Seen[i], st.Seen[j]
			if a.Origin != b.Origin {
				return a.Origin < b.Origin
			}
			if a.Flow != b.Flow {
				return a.Flow < b.Flow
			}
			return a.Seq < b.Seq
		})
	}
	return st
}

// RestoreState overlays a captured state onto a freshly constructed node.
func (n *Node) RestoreState(st *NodeState) error {
	if st == nil {
		return fmt.Errorf("mac node %d: nil state", n.id)
	}
	n.synced = st.Synced
	n.syncedAt = st.SyncedAt
	n.lastRx = st.LastRx
	n.queue = restorePackets(st.Queue)
	n.downQueue = restorePackets(st.DownQueue)
	n.seen = make(map[seenKey]struct{}, len(st.Seen))
	for _, k := range st.Seen {
		n.seen[seenKey{origin: k.Origin, flow: k.Flow, seq: k.Seq}] = struct{}{}
	}
	n.downSeq = st.DownSeq
	n.stats = st.Stats
	return nil
}
