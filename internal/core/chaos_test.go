package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// TestNetworkSurvivesChurn is the failure-injection soak test: random
// field devices die and recover continuously for ten simulated minutes;
// afterwards the routing graph must re-converge completely and carry
// traffic again. This exercises every repair path at once: dead-link
// detection, reselection, confirmation handshakes, neighbour expiry,
// rejoin after restore.
func TestNetworkSurvivesChurn(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 77)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(240*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatal("network did not converge")
	}

	// Churn phase: every 20 s, kill a random healthy field device and
	// restore a random dead one, while background traffic flows.
	rng := rand.New(rand.NewSource(7))
	dead := map[topology.NodeID]bool{}
	delivered := 0
	net.OnDeliver(func(sim.ASN, *sim.Frame) { delivered++ })
	seq := uint16(0)
	for round := 0; round < 30; round++ {
		// Kill one.
		for tries := 0; tries < 20; tries++ {
			victim := topology.NodeID(topo.NumAPs + 1 + rng.Intn(topo.N()-topo.NumAPs))
			if !dead[victim] {
				nw.Fail(victim)
				dead[victim] = true
				break
			}
		}
		// Restore one (not necessarily the same), picked from a sorted
		// slice: ranging over the map here would consume rng draws in map
		// iteration order and make the whole run nondeterministic.
		if len(dead) > 0 && rng.Intn(2) == 0 {
			ids := make([]topology.NodeID, 0, len(dead))
			for id := range dead {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			nw.Restore(id)
			delete(dead, id)
		}
		// Background traffic from live sources.
		for _, src := range topo.SuggestedSources {
			if dead[src] {
				continue
			}
			seq++
			nw.Wake(src)
			_ = net.Nodes[src].InjectData(&sim.Frame{
				Origin: src, FlowID: 1, Seq: seq, BornASN: nw.ASN(),
			})
		}
		nw.Run(sim.SlotsFor(20 * time.Second))
	}
	if delivered == 0 {
		t.Fatal("no packets delivered during churn")
	}
	t.Logf("delivered %d packets during churn with %d nodes still dead", delivered, len(dead))

	// Recovery phase: restore everyone and require full re-convergence.
	for id := range dead {
		nw.Restore(id)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(240*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatalf("network did not re-converge after churn: %d/%d joined",
			net.JoinedCount(), topo.N())
	}

	// And it must still deliver reliably.
	after := 0
	net.OnDeliver(func(sim.ASN, *sim.Frame) { after++ })
	sent := 0
	for round := 0; round < 6; round++ {
		for _, src := range topo.SuggestedSources {
			seq++
			sent++
			nw.Wake(src)
			_ = net.Nodes[src].InjectData(&sim.Frame{
				Origin: src, FlowID: 1, Seq: seq, BornASN: nw.ASN(),
			})
		}
		nw.Run(sim.SlotsFor(5 * time.Second))
	}
	nw.Run(sim.SlotsFor(20 * time.Second))
	if after < sent*8/10 {
		t.Fatalf("post-churn delivery %d/%d below 80%%", after, sent)
	}
	t.Logf("post-churn delivery: %d/%d", after, sent)
}
