package orchestra

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func TestTxSlotStableAndInRange(t *testing.T) {
	seen := map[int64]int{}
	for id := 1; id <= 200; id++ {
		s := TxSlot(topology.NodeID(id), 151)
		if s < 0 || s >= 151 {
			t.Fatalf("TxSlot(%d) = %d outside frame", id, s)
		}
		seen[s]++
	}
	// The hash must spread nodes over many distinct slots.
	if len(seen) < 100 {
		t.Fatalf("sender-cell hash uses only %d distinct slots for 200 nodes", len(seen))
	}
}

func TestUnicastRolesSenderBasedMode(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewStack(9, false, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	s.Router().OnDIO(0, 4, rpl.DIO{Rank: 1, PathETX: 0}, -60)
	// Learn about a potential child: node 12 advertising a higher rank.
	s.Router().OnDIO(0, 12, rpl.DIO{Rank: 25, PathETX: 4}, -70)
	s.Assignment(0) // the first maintenance tick places the listen cells

	own := unicastSlot(cfg, TxSlot(9, cfg.UnicastFrameLen), 9, 4)
	child := unicastSlot(cfg, TxSlot(12, cfg.UnicastFrameLen), 9, 4)
	if a := s.Assignment(own); a.Role != mac.RoleTxData || a.Attempt != 1 {
		t.Fatalf("own sender cell, slot %d: %+v, want TxData attempt 1", own, a)
	}
	if a := s.Assignment(child); a.Role != mac.RoleRxData {
		t.Fatalf("child sender cell, slot %d: %+v, want RxData", child, a)
	}
}

// unicastSlot returns the first slot landing on the offset of the unicast
// slotframe that neither node id's beacon slot, its parent's nor the shared
// slot claims first.
func unicastSlot(cfg Config, offset int64, id, parent topology.NodeID) sim.ASN {
	for asn := offset; ; asn += cfg.UnicastFrameLen {
		eb := asn % cfg.EBFrameLen
		if eb != int64(id-1) && eb != int64(parent-1) && asn%cfg.SharedFrameLen != 0 {
			return asn
		}
	}
}

func TestNextHopIsAlwaysPreferredParent(t *testing.T) {
	s, err := NewStack(9, false, DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextHop(0, 1); ok {
		t.Fatal("next hop before joining")
	}
	s.Router().OnDIO(0, 4, rpl.DIO{Rank: 1, PathETX: 0}, -60)
	for attempt := 1; attempt <= 3; attempt++ {
		hop, ok := s.NextHop(0, attempt)
		if !ok || hop != 4 {
			t.Fatalf("attempt %d next hop = (%d, %v), want (4, true)", attempt, hop, ok)
		}
	}
}

func TestOrchestraConvergesAndDelivers(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 19)
	net, err := Build(nw, DefaultConfig(), mac.DefaultConfig(), 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(150*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatalf("only %d/%d joined", net.JoinedCount(), topo.N())
	}

	delivered := make(map[[2]uint16]bool)
	net.OnDeliver(func(_ sim.ASN, f *sim.Frame) {
		delivered[[2]uint16{f.FlowID, f.Seq}] = true
	})
	sent := 0
	for round := 0; round < 10; round++ {
		for fi, src := range topo.SuggestedSources {
			nw.Wake(src)
			if err := net.Nodes[src].InjectData(&sim.Frame{
				Origin: src, FlowID: uint16(fi + 1), Seq: uint16(round), BornASN: nw.ASN(),
			}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		nw.Run(sim.SlotsFor(5 * time.Second))
	}
	nw.Run(sim.SlotsFor(5 * time.Second))
	pdr := float64(len(delivered)) / float64(sent)
	t.Logf("Orchestra clean-environment PDR: %.3f", pdr)
	if pdr < 0.9 {
		t.Fatalf("Orchestra clean PDR %.3f, want >= 0.9", pdr)
	}
}

func TestOrchestraFlowDisconnectsOnParentFailure(t *testing.T) {
	// The paper's Figure 11 contrast: with a single preferred parent and
	// no backup route, killing the parent interrupts delivery until RPL
	// repairs. Immediately after the failure, packets must be lost.
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 23)
	net, err := Build(nw, DefaultConfig(), mac.DefaultConfig(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(150*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatal("network did not converge")
	}
	var src, victim topology.NodeID
	for _, s := range topo.SuggestedSources {
		if p := net.Stacks[s].Router().Parent(); p != 0 && !topo.IsAP(p) {
			src, victim = s, p
			break
		}
	}
	if src == 0 {
		t.Skip("no source routed through a field device in this seed")
	}
	delivered := 0
	net.OnDeliver(func(_ sim.ASN, f *sim.Frame) {
		if f.Origin == src {
			delivered++
		}
	})
	nw.Fail(victim)
	// Two packets in quick succession right after the failure: with a
	// 12+ second detection window they cannot be delivered in time.
	for i := 0; i < 2; i++ {
		nw.Wake(src)
		_ = net.Nodes[src].InjectData(&sim.Frame{
			Origin: src, FlowID: 1, Seq: uint16(i), BornASN: nw.ASN(),
		})
		nw.Run(sim.SlotsFor(2 * time.Second))
	}
	if delivered != 0 {
		t.Fatalf("delivered %d packets within 4 s of parent failure; Orchestra "+
			"should still be detecting the loss", delivered)
	}
	// Eventually RPL repairs and traffic resumes.
	nw.Run(sim.SlotsFor(90 * time.Second))
	resumed := delivered
	for i := 2; i < 6; i++ {
		nw.Wake(src)
		_ = net.Nodes[src].InjectData(&sim.Frame{
			Origin: src, FlowID: 1, Seq: uint16(i), BornASN: nw.ASN(),
		})
		nw.Run(sim.SlotsFor(5 * time.Second))
	}
	if delivered-resumed == 0 {
		t.Fatal("flow never recovered after RPL repair")
	}
}
