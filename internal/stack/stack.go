// Package stack declares the one contract every protocol stack implements
// and owns the machinery all of them share. The paper's evaluation runs
// DiGS, Orchestra and WirelessHART over the same MAC, radio model and
// testbeds and varies only routing and scheduling; here that reads: a
// stack package holds its per-node logic (a Node), its plain-data state (a
// State with its wire form) and one Codec registration, and everything
// around them — attaching nodes, sinks, tracers, the kept join count,
// invariant probes, watchdog heals, whole-network capture/restore — is
// Network[S], written once.
package stack

import (
	"fmt"
	"hash/fnv"

	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// State is one node's captured protocol state: plain old data that knows
// its own wire form.
type State interface {
	// Code walks the state in the stack's snapshot section layout: it
	// writes the state through an encoding Coder and fills it (from the
	// zero value the stack's Codec.New returns) through a decoding one.
	Code(c *wire.Coder)
	// Routed reports whether the node holds (or, for stacks that record
	// it, has ever held) a parent — the count `digs-snap info` prints.
	Routed() bool
}

// RouteHook observes a node's parent changes. Backup is 0 on stacks that
// keep a single preferred parent. A parent lost with no replacement
// reaches it as parent 0 on sdn only; DiGS and the RPL family report that
// loss through the join hook alone.
type RouteHook func(asn sim.ASN, parent, backup topology.NodeID)

// Node is what one node's protocol stack exposes beyond the MAC-facing
// mac.Protocol. A stack that should rejoin from scratch when the watchdog
// heals it also implements mac.Resetter; one that does not keeps its
// routing state across the reboot (the static WirelessHART schedule).
type Node interface {
	mac.Protocol
	// Joined reports whether the node has a data-plane route (roots and
	// access points count as joined). Network[S] reads it when the join
	// hook fires, on sync, reboot and restore, and must not allocate.
	Joined() bool
	// SetRouteHook installs (or, with nil, removes) the parent-change
	// callback. It survives a Reset.
	SetRouteHook(fn RouteHook)
	// SetJoinHook installs the callback the stack calls whenever Joined
	// may have flipped — a parent gained or lost — other than by Reset or
	// RestoreState. It is the one hook that sees every parent loss (the
	// route hook does not, see RouteHook). It survives a Reset.
	SetJoinHook(fn func())
	// Probe reports the routing view the invariant monitor checks,
	// consuming no randomness.
	Probe() (parent topology.NodeID, neighbors int)
	// CaptureState and RestoreState move the node's complete mutable
	// state out of and into a freshly built instance (same node, same
	// configuration, same build seed). Stacks registered without a
	// snapshot section are never asked.
	CaptureState() (State, error)
	RestoreState(State) error
}

// Bundle is the type-erased view of a Network[S]: what the scenario,
// snapshot and experiment layers need of a built stack without knowing
// which one it is.
type Bundle interface {
	Protocol() string
	ConfigHash() uint64
	MACNode(i int) *mac.Node
	Schedule(id int, asn sim.ASN) mac.Assignment
	OnDeliver(fn func(asn sim.ASN, f *sim.Frame))
	SetTracer(t telemetry.Tracer)
	JoinedCount() int
	Reboot(id topology.NodeID, asn sim.ASN, loseState bool)
	Prober(nw *sim.Network) invariant.Prober
	Healer(nw *sim.Network) func(id topology.NodeID, asn sim.ASN)
	CaptureState() ([]State, error)
	RestoreState(states []State) error
}

// HashConfig fingerprints build configuration values. Pass plain-old-data
// structs (mac.Config, core.Config, slotframe lengths…); the hash is over
// their printed form, stable across processes.
func HashConfig(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v|", p)
	}
	return h.Sum64()
}

// Network bundles the per-node MAC and protocol instances of one stack
// running over one simulated network.
type Network[S Node] struct {
	Nodes  []*mac.Node // indexed by node ID, entry 0 nil
	Stacks []S         // indexed by node ID, entry 0 the zero S

	protocol string
	cfgHash  uint64

	// joined[i] is node i's join state (synchronised and Joined) as last
	// read, nJoined the number of true entries; nil until JoinedCount is
	// first asked. A node is re-read only where its join state can change:
	// its stack's join hook, its MAC's sync, its reboot and a restore.
	joined  []bool
	nJoined int
}

// Build attaches a node running newStack's protocol instance to every
// node of the network's topology. protocol is the stack's registered
// Codec.Protocol; cfgHash fingerprints everything that shaped the build
// beyond (topology, protocol, seed).
func Build[S Node](nw *sim.Network, protocol string, cfgHash uint64, macCfg mac.Config,
	newStack func(id topology.NodeID, isAP bool) (S, error)) (*Network[S], error) {
	topo := nw.Topology()
	out := &Network[S]{
		Nodes:    make([]*mac.Node, topo.N()+1),
		Stacks:   make([]S, topo.N()+1),
		protocol: protocol,
		cfgHash:  cfgHash,
	}
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		isAP := topo.IsAP(id)
		s, err := newStack(id, isAP)
		if err != nil {
			return nil, err
		}
		node := mac.NewNode(id, isAP, s, macCfg)
		if err := nw.Attach(node); err != nil {
			return nil, fmt.Errorf("%s build: %w", protocol, err)
		}
		out.Nodes[i] = node
		out.Stacks[i] = s
	}
	return out, nil
}

// Protocol returns the registered protocol name the bundle was built as.
func (n *Network[S]) Protocol() string { return n.protocol }

// ConfigHash fingerprints the build configuration; snapshot metadata
// carries it and a restore under a different one is refused.
func (n *Network[S]) ConfigHash() uint64 { return n.cfgHash }

// MACNode returns one node's MAC instance (nil for entry 0).
func (n *Network[S]) MACNode(i int) *mac.Node { return n.Nodes[i] }

// Schedule reads one node's slot assignment. Calling it advances protocol
// timers exactly like the simulation would, so it is a run-ending
// inspection, not a peek.
func (n *Network[S]) Schedule(id int, asn sim.ASN) mac.Assignment {
	return n.Stacks[id].Assignment(asn)
}

// OnDeliver installs the sink callback on every access point.
func (n *Network[S]) OnDeliver(fn func(asn sim.ASN, f *sim.Frame)) {
	for _, node := range n.Nodes[1:] {
		if node.IsAP() {
			node.Sink = fn
		}
	}
}

// OnCommand installs a command handler on a field device (the actuator
// callback).
func (n *Network[S]) OnCommand(id topology.NodeID, fn func(asn sim.ASN, f *sim.Frame)) error {
	if int(id) >= len(n.Nodes) || n.Nodes[id] == nil {
		return fmt.Errorf("%s network: no node %d", n.protocol, id)
	}
	n.Nodes[id].CommandSink = fn
	return nil
}

// SetTracer installs (or, with nil, removes) a packet-lifecycle tracer on
// every node, and wires the stacks' route hooks so parent switches appear
// in the event stream as route-change events.
func (n *Network[S]) SetTracer(t telemetry.Tracer) {
	for i, node := range n.Nodes {
		if node == nil {
			continue
		}
		node.SetTracer(t)
		if t == nil {
			n.Stacks[i].SetRouteHook(nil)
			continue
		}
		id := topology.NodeID(i)
		n.Stacks[i].SetRouteHook(func(asn sim.ASN, parent, backup topology.NodeID) {
			t.Record(telemetry.Event{
				ASN:   int64(asn),
				Type:  telemetry.EvRouteChange,
				Node:  id,
				Peer:  parent,
				Peer2: backup,
			})
		})
	}
}

// JoinedCount returns how many nodes are synchronised and joined — the
// formation predicate. The count is kept, not walked: the first call
// counts every node and installs the hooks that re-read one where its join
// state can change (its stack's join hook, its MAC's sync); Reboot and
// RestoreState re-read the nodes they touch.
func (n *Network[S]) JoinedCount() int {
	if n.joined == nil {
		n.joined = make([]bool, len(n.Nodes))
		for i, node := range n.Nodes {
			if node == nil {
				continue
			}
			reread := func() { n.reread(i) }
			node.OnSync = reread
			n.Stacks[i].SetJoinHook(reread)
			reread()
		}
	}
	return n.nJoined
}

// reread updates the kept count from node i's current join state; before
// the count starts there is nothing to update.
func (n *Network[S]) reread(i int) {
	if n.joined == nil {
		return
	}
	synced, _ := n.Nodes[i].Synced()
	if j := synced && n.Stacks[i].Joined(); j != n.joined[i] {
		n.joined[i] = j
		if j {
			n.nJoined++
		} else {
			n.nJoined--
		}
	}
}

// Reboot cold-restarts one node (mac.Node.Reboot) and re-reads its join
// state. Every reboot goes through here: the watchdog's Healer and a fault
// plan's reboot hook.
func (n *Network[S]) Reboot(id topology.NodeID, asn sim.ASN, loseState bool) {
	n.Nodes[id].Reboot(asn, loseState)
	n.reread(int(id))
}

// Prober returns the invariant-monitor probe: a snapshot of every node's
// MAC and routing state, in ascending node-ID order.
func (n *Network[S]) Prober(nw *sim.Network) invariant.Prober {
	return func(states []invariant.NodeState) []invariant.NodeState {
		for i, node := range n.Nodes {
			if node == nil {
				continue
			}
			id := topology.NodeID(i)
			parent, neighbors := n.Stacks[i].Probe()
			synced, _ := node.Synced()
			states = append(states, invariant.NodeState{
				ID:        id,
				IsAP:      node.IsAP(),
				Alive:     !nw.Failed(id),
				Synced:    synced,
				Parent:    parent,
				Queue:     node.QueueLen(),
				LastRx:    node.LastRx(),
				Neighbors: neighbors,
			})
		}
		return states
	}
}

// Healer returns the watchdog hook: a degraded-mode recovery that
// cold-restarts the node. A stack implementing mac.Resetter discards its
// schedule and routing state and rejoins from scratch (sink and tracer
// callbacks survive); one that does not only resyncs its clock. The node
// is woken first: an orphan is synchronised and idle, hence napping on the
// sparse engine, and the rebooted node must start scanning at once, not
// when the nap it took under its old schedule ends.
func (n *Network[S]) Healer(nw *sim.Network) func(id topology.NodeID, asn sim.ASN) {
	return func(id topology.NodeID, asn sim.ASN) {
		if int(id) < len(n.Nodes) && n.Nodes[id] != nil {
			nw.Wake(id)
			n.Reboot(id, asn, true)
		}
	}
}

// CaptureState snapshots every stack of the network, indexed by node ID
// (entry 0 nil).
func (n *Network[S]) CaptureState() ([]State, error) {
	out := make([]State, len(n.Stacks))
	for i := 1; i < len(n.Stacks); i++ {
		st, err := n.Stacks[i].CaptureState()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// RestoreState overlays captured stack states onto a freshly built
// network whose MAC states are already restored, then recounts every
// node's join state. A stack registered without a snapshot section has no
// states to overlay (states is nil).
func (n *Network[S]) RestoreState(states []State) error {
	if c, _ := Lookup(n.protocol); c.Section != "" {
		if len(states) != len(n.Stacks) {
			return fmt.Errorf("%s restore: %d stack states for %d stacks", n.protocol, len(states), len(n.Stacks))
		}
		for i := 1; i < len(n.Stacks); i++ {
			if states[i] == nil {
				return fmt.Errorf("%s restore: missing state for node %d", n.protocol, i)
			}
			if err := n.Stacks[i].RestoreState(states[i]); err != nil {
				return err
			}
		}
	}
	for i := 1; i < len(n.Stacks); i++ {
		n.reread(i)
	}
	return nil
}
