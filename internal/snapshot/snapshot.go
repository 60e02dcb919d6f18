// Package snapshot implements the deterministic checkpoint/restore layer:
// a versioned, self-describing binary codec over the plain-old-data state
// every stateful package exports (sim.NetworkState, mac.NodeState, the
// protocol StackStates). A snapshot taken at a quiesce point restores into
// a freshly built scenario — same topology, configuration and seeds — such
// that continuing the run is bit-identical to never having stopped: every
// RNG stream position, queue, routing table, timer and counter round-trips
// exactly.
//
// What is not captured: scheduled event closures and interferers (the
// scenario layer re-schedules them after restore; taking a snapshot while
// any exist is an error), telemetry sinks (external observers, re-attached
// by the caller), and everything construction-derived (schedules, RSS
// matrices, wiring), which the deterministic build path reproduces.
package snapshot

import (
	"fmt"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/stack"
)

// Meta is the self-describing header of a snapshot: everything a consumer
// needs to rebuild the scenario the state overlays onto, plus free-form
// labelling for caches and tooling.
type Meta struct {
	// Protocol is a registered stack.Codec.Protocol name.
	Protocol string
	// Topology names the deployment (e.g. "testbed-a"); the restoring
	// side resolves it to the same generator the taking side used.
	Topology string
	Nodes    int
	NumAPs   int
	// Seed is the scenario seed: the sim.Network seed, from which the
	// per-node stack seeds derive in the build path.
	Seed int64
	// Slot is the ASN the snapshot was taken at.
	Slot int64
	// ConfigHash fingerprints the build configuration (stack.HashConfig). A
	// restore under a different configuration would not be the same
	// simulation; consumers compare fingerprints before restoring.
	ConfigHash uint64
	// Label tags the scenario phase (e.g. "formed+30s"); the snapshot
	// cache keys on it alongside topology/protocol/seed/config.
	Label string
	// Extra carries free-form key/value pairs (e.g. the formation length
	// a warm-started run reports); encoded sorted by key.
	Extra map[string]string
}

// Snapshot is a fully decoded checkpoint.
type Snapshot struct {
	Meta Meta
	Net  *sim.NetworkState
	// MACs is indexed by node ID (entry 0 nil), length Nodes+1.
	MACs []*mac.NodeState
	// Stack is the protocol stack's per-node state, indexed by node ID
	// (entry 0 nil), in the section the stack's codec names. Nil for a
	// stack registered without a section (the WirelessHART stack is
	// stateless beyond its MAC nodes).
	Stack []stack.State

	// SectionSizes reports the encoded byte size per section tag after a
	// Decode (inspection/tooling); Encode ignores it.
	SectionSizes map[string]int
}

// Take captures a complete scenario — network, MAC nodes and the protocol
// stack's own state — at the current slot. Protocol, Nodes, NumAPs and
// Slot in meta are filled from the network and the bundle.
func Take(meta Meta, nw *sim.Network, net stack.Bundle) (*Snapshot, error) {
	codec, err := stack.Lookup(net.Protocol())
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	netSt, err := nw.CaptureState()
	if err != nil {
		return nil, err
	}
	meta.Protocol = net.Protocol()
	meta.Nodes = nw.Topology().N()
	meta.NumAPs = nw.Topology().NumAPs
	meta.Slot = nw.ASN()
	s := &Snapshot{Meta: meta, Net: netSt, MACs: make([]*mac.NodeState, meta.Nodes+1)}
	for i := 1; i <= meta.Nodes; i++ {
		s.MACs[i] = net.MACNode(i).CaptureState()
	}
	if codec.Section != "" {
		if s.Stack, err = net.CaptureState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Restore overlays the snapshot onto a freshly built, never-stepped
// scenario of the same protocol and topology.
func (s *Snapshot) Restore(nw *sim.Network, net stack.Bundle) error {
	if s.Meta.Protocol != net.Protocol() {
		return fmt.Errorf("snapshot: restoring %q snapshot into a %s scenario", s.Meta.Protocol, net.Protocol())
	}
	if s.Meta.Nodes != nw.Topology().N() {
		return fmt.Errorf("snapshot: %d nodes in snapshot, topology has %d", s.Meta.Nodes, nw.Topology().N())
	}
	if s.Net == nil {
		return fmt.Errorf("snapshot: missing network section")
	}
	if len(s.MACs) != s.Meta.Nodes+1 {
		return fmt.Errorf("snapshot: %d MAC states for %d nodes", len(s.MACs), s.Meta.Nodes)
	}
	if err := nw.RestoreState(s.Net); err != nil {
		return err
	}
	for i := 1; i <= s.Meta.Nodes; i++ {
		if err := net.MACNode(i).RestoreState(s.MACs[i]); err != nil {
			return err
		}
	}
	return net.RestoreState(s.Stack)
}
