package mac

import (
	"testing"

	"github.com/digs-net/digs/internal/sim"
)

// resettableProto wraps staticProto and records Reset calls.
type resettableProto struct {
	staticProto
	resets int
}

func (p *resettableProto) Reset() { p.resets++; p.synced = false }

func TestRebootClearsStateAndResyncs(t *testing.T) {
	topo := lineTopology(t, 2)
	nw := sim.NewNetwork(topo, 1)
	p2 := &resettableProto{staticProto: staticProto{id: 2, parent: 1}}
	n2 := NewNode(2, false, p2, DefaultConfig())
	p1 := &staticProto{id: 1}
	n1 := NewNode(1, true, p1, DefaultConfig())
	if err := nw.Attach(n1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(n2); err != nil {
		t.Fatal(err)
	}
	nw.Run(200)
	if synced, _ := n2.Synced(); !synced {
		t.Fatal("node 2 never joined")
	}
	if err := n2.InjectData(&sim.Frame{Origin: 2, FlowID: 1, Seq: 0}); err != nil {
		t.Fatal(err)
	}

	n2.Reboot(nw.ASN(), true)
	if p2.resets != 1 {
		t.Fatalf("protocol Reset called %d times, want 1", p2.resets)
	}
	if n2.QueueLen() != 0 {
		t.Fatalf("queue survived reboot: len %d", n2.QueueLen())
	}
	if synced, _ := n2.Synced(); synced {
		t.Fatal("node 2 still synchronised after reboot")
	}

	// The node re-hears a beacon and rejoins.
	nw.Run(400)
	if synced, at := n2.Synced(); !synced || at == 0 {
		t.Fatalf("node 2 did not rejoin (synced=%v at=%d)", synced, at)
	}

	// A duplicate of a pre-reboot identity is accepted again: the seen
	// table was part of the lost state.
	if _, dup := n2.seen[seenKey{origin: 2, flow: 1, seq: 0}]; dup {
		t.Fatal("duplicate table survived reboot")
	}

	// Fast reboot (state kept): protocol Reset must not be called.
	n1.Reboot(nw.ASN(), false)
	if p2.resets != 1 {
		t.Fatalf("Reset called on fast reboot")
	}
}
