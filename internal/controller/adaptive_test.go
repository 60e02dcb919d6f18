package controller

import (
	"bytes"
	"testing"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func newTestAdaptive(t *testing.T) *AdaptiveStack {
	t.Helper()
	s, err := NewAdaptiveStack(2, false, DefaultAdaptiveConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdaptiveGrowShrink drives the allocator through its whole budget
// range: queue pressure and loss grow it one cell per tick up to MaxCells,
// sustained idleness sheds back down to MinCells, activity resets the
// idle streak.
func TestAdaptiveGrowShrink(t *testing.T) {
	s := newTestAdaptive(t)
	cfg := s.cfg
	if s.txCells != cfg.MinCells {
		t.Fatalf("fresh stack has %d cells, want MinCells=%d", s.txCells, cfg.MinCells)
	}

	// Queue pressure: one cell per tick, capped at MaxCells.
	s.queueLen = func() int { return cfg.GrowQueue }
	for i := 0; i < cfg.MaxCells+2; i++ {
		s.adapt(int64(1000 + i))
	}
	if s.txCells != cfg.MaxCells {
		t.Fatalf("after sustained pressure: %d cells, want MaxCells=%d", s.txCells, cfg.MaxCells)
	}

	// Idle: needs ShrinkIdle consecutive idle ticks per shed cell.
	s.queueLen = func() int { return 0 }
	ticks := 0
	for s.txCells > cfg.MinCells {
		s.adapt(int64(2000 + ticks))
		ticks++
		if ticks > cfg.ShrinkIdle*(cfg.MaxCells+1) {
			t.Fatalf("allocator never shed below %d cells", s.txCells)
		}
	}
	if ticks != cfg.ShrinkIdle*(cfg.MaxCells-cfg.MinCells) {
		t.Fatalf("shed %d cells in %d ticks, want %d", cfg.MaxCells-cfg.MinCells, ticks,
			cfg.ShrinkIdle*(cfg.MaxCells-cfg.MinCells))
	}

	// Loss also grows, even with an empty queue.
	s.failsSinceTick = cfg.GrowFails
	s.adapt(3000)
	if s.txCells != cfg.MinCells+1 {
		t.Fatalf("loss did not grow: %d cells", s.txCells)
	}
	if s.failsSinceTick != 0 || s.sentSinceTick != 0 {
		t.Fatal("tick counters not cleared")
	}

	// Activity without pressure holds the budget and resets the idle streak.
	s.idleTicks = cfg.ShrinkIdle - 1
	s.sentSinceTick = 1
	s.adapt(4000)
	if s.txCells != cfg.MinCells+1 || s.idleTicks != 0 {
		t.Fatalf("active tick: cells=%d idle=%d", s.txCells, s.idleTicks)
	}
}

// TestAdaptivePayloadRoundTrip pins the extended-DIO wire format: the RPL
// advertisement followed by one byte, the sender's cell count.
func TestAdaptivePayloadRoundTrip(t *testing.T) {
	root, err := NewAdaptiveStack(1, true, DefaultAdaptiveConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	root.txCells = 3
	b := root.EBPayload()
	adv, _ := root.Router().Advertisement()
	if want := append(adv.Marshal(), 3); !bytes.Equal(b, want) {
		t.Fatalf("payload % x, want % x", b, want)
	}
	hear := func(payload []byte) (*AdaptiveStack, int) {
		s := newTestAdaptive(t)
		s.OnFrame(10, &sim.Frame{Kind: sim.KindJoinIn, Src: 1, Payload: payload}, -60)
		cells, _ := s.neighborCells.Get(1)
		return s, cells
	}
	if s, cells := hear(b); cells != 3 || s.Router().Parent() != 1 {
		t.Fatalf("round-trip: %d cells, parent %d", cells, s.Router().Parent())
	}
	// A zero cell count from the wire is floored to 1: every synced node
	// owns at least its base cell.
	if _, cells := hear(append(adv.Marshal(), 0)); cells != 1 {
		t.Fatalf("zero cells: %d", cells)
	}
	for _, bad := range [][]byte{nil, b[:6], append(append([]byte(nil), b...), 0)} {
		if s, _ := hear(bad); !s.neighborCells.Nil() || s.Router().Parent() != 0 {
			t.Fatalf("a %d-byte payload was taken for a DIO", len(bad))
		}
	}
}

// TestAdaptiveCellSlots proves one node's cells stay distinct over the
// whole budget range for the default frame length.
func TestAdaptiveCellSlots(t *testing.T) {
	cfg := DefaultAdaptiveConfig()
	for id := topology.NodeID(1); id <= 300; id++ {
		seen := make(map[int64]bool, cfg.MaxCells)
		for j := 0; j < cfg.MaxCells; j++ {
			slot := adaptiveCellSlot(id, j, cfg.DataFrameLen)
			if slot < 0 || slot >= cfg.DataFrameLen {
				t.Fatalf("node %d cell %d out of frame: %d", id, j, slot)
			}
			if seen[slot] {
				t.Fatalf("node %d cells collide at slot %d", id, slot)
			}
			seen[slot] = true
		}
	}
}

// TestConfigValidation covers both stacks' config validators.
func TestConfigValidation(t *testing.T) {
	if err := DefaultAdaptiveConfig().Validate(); err != nil {
		t.Fatalf("default adaptive config invalid: %v", err)
	}
	if err := DefaultSDNConfig().Validate(); err != nil {
		t.Fatalf("default sdn config invalid: %v", err)
	}
	bad := DefaultAdaptiveConfig()
	bad.MaxCells = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("MaxCells=0 accepted")
	}
	collide := DefaultAdaptiveConfig()
	collide.DataFrameLen = 53 // stride 53 ≡ 0: every cell lands on one slot
	collide.MaxCells = 2
	if err := collide.Validate(); err == nil {
		t.Fatal("colliding cell layout accepted")
	}
	wide := DefaultAdaptiveConfig()
	wide.DataFrameLen = 557 // room for 300 distinct cells, but the DIO carries the count in one byte
	wide.MaxCells = 300
	if err := wide.Validate(); err == nil {
		t.Fatal("a cell budget the DIO's count byte cannot carry was accepted")
	}
}
