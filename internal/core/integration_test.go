package core

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// TestDiGSFormsGraphOnTestbedA boots a full DiGS network on the 50-node
// testbed and checks that the routing graph converges: every node joins,
// acquires a best parent, and (almost all) acquire a backup parent; ranks
// are consistent with the loop-free rule; and end-to-end data flows reach
// the access points.
func TestDiGSFormsGraphOnTestbedA(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 11)
	cfg := DefaultConfig(topo.NumAPs)
	net, err := Build(nw, cfg, mac.DefaultConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: convergence within 60 simulated seconds.
	slots, done := nw.RunUntil(sim.SlotsFor(150*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	})
	if !done {
		t.Fatalf("only %d/%d nodes joined after 150 s", net.JoinedCount(), topo.N())
	}
	t.Logf("all %d nodes joined after %v", topo.N(), sim.TimeAt(slots))

	// Let the graph thicken: backup parents accumulate as further
	// join-ins arrive after the initial join wave.
	nw.Run(sim.SlotsFor(60 * time.Second))

	// Loop-freedom: following best-parent pointers from any node must
	// reach an access point without revisiting a node. (Instantaneous
	// ranks can disagree transiently — it is a distance-vector protocol —
	// but the forwarding graph must be acyclic.)
	withBackup, detached := 0, 0
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		visited := map[topology.NodeID]bool{}
		cur := topology.NodeID(i)
		for !topo.IsAP(cur) {
			if visited[cur] {
				t.Fatalf("primary-path loop through node %d starting at %d", cur, i)
			}
			visited[cur] = true
			best, _ := net.Stacks[cur].Router().Parents()
			if best == 0 {
				// Momentarily detached (rank-rule poisoning mid-update);
				// tolerated in small numbers, the node re-attaches on the
				// next advertisement.
				detached++
				break
			}
			cur = best
		}
		if _, second := net.Stacks[i].Router().Parents(); second != 0 {
			withBackup++
		}
	}
	if detached > 2 {
		t.Fatalf("%d paths hit detached nodes; expected at most transient cases", detached)
	}
	// Some first-hop nodes legitimately reach only one AP and some deep
	// nodes have a single lower-rank neighbour; the loop-free rank rule
	// then leaves them without a backup. The bulk of the mesh must still
	// be dual-homed for graph routing to mean anything.
	fieldDevices := topo.N() - topo.NumAPs
	if withBackup < fieldDevices*6/10 {
		t.Fatalf("only %d/%d field devices have a backup parent", withBackup, fieldDevices)
	}

	// Phase 2: end-to-end traffic. Each suggested source sends one packet
	// every 5 seconds for 60 seconds.
	delivered := make(map[[2]uint16]bool)
	net.OnDeliver(func(_ sim.ASN, f *sim.Frame) {
		delivered[[2]uint16{f.FlowID, f.Seq}] = true
	})
	sent := 0
	for round := 0; round < 12; round++ {
		for fi, src := range topo.SuggestedSources {
			nw.Wake(src)
			if err := net.Nodes[src].InjectData(&sim.Frame{
				Origin: src, FlowID: uint16(fi + 1), Seq: uint16(round), BornASN: nw.ASN(),
			}); err != nil {
				t.Fatalf("inject round %d flow %d: %v", round, fi, err)
			}
			sent++
		}
		nw.Run(sim.SlotsFor(5 * time.Second))
	}
	nw.Run(sim.SlotsFor(5 * time.Second)) // drain

	pdr := float64(len(delivered)) / float64(sent)
	t.Logf("PDR in clean environment: %.3f (%d/%d)", pdr, len(delivered), sent)
	if pdr < 0.95 {
		t.Fatalf("clean-environment PDR %.3f, want >= 0.95", pdr)
	}
}

// TestDiGSSurvivesBestParentFailure reproduces the paper's headline
// failure-tolerance property in miniature: killing a primary parent must
// not stop delivery, because the third transmission attempt already uses
// the backup parent.
func TestDiGSSurvivesBestParentFailure(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 13)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(150*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatal("network did not converge")
	}

	// Strict mode: the invariant monitor rides the rest of the test. The
	// parent kill below must be absorbed by backup routes without tripping
	// a single invariant — the watchdog Heal hook stays armed so a node
	// that does end up orphaned would both rejoin and fail the test.
	mon := invariant.New(invariant.Config{Heal: net.Healer(nw)})
	invariant.Attach(nw, mon, net.Prober(nw))

	// Pick a source whose best parent is a field device (a true router).
	var src, victim topology.NodeID
	for _, s := range topo.SuggestedSources {
		best, second := net.Stacks[s].Router().Parents()
		if best != 0 && !topo.IsAP(best) && second != 0 {
			src, victim = s, best
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
	sent := 10
	for i := 0; i < sent; i++ {
		nw.Wake(src)
		if err := net.Nodes[src].InjectData(&sim.Frame{
			Origin: src, FlowID: 1, Seq: uint16(i), BornASN: nw.ASN(),
		}); err != nil {
			t.Fatal(err)
		}
		nw.Run(sim.SlotsFor(5 * time.Second))
	}
	nw.Run(sim.SlotsFor(10 * time.Second))

	// Packets in flight during the reselection churn window may be lost
	// when downstream forwarders also routed through the victim (not
	// every hop of the chain is dual-homed); the bulk must arrive over
	// backup routes.
	if delivered < sent-2 {
		t.Fatalf("delivered %d/%d packets after primary parent failure, want >= %d "+
			"(backup route should carry them)", delivered, sent, sent-2)
	}
	if err := mon.Report().Err(); err != nil {
		t.Errorf("invariant monitor (strict): %v", err)
	}
}

// TestJoiningTimesAreStaggered checks the Figure 13 shape: nodes join in a
// wave, with close nodes joining in seconds and the whole network within
// tens of seconds.
func TestJoiningTimesAreStaggered(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 17)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(120*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatalf("network did not converge: %d/%d", net.JoinedCount(), topo.N())
	}
	var earliest, latest time.Duration
	earliest = time.Hour
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		at, ok := net.Stacks[i].Router().FirstParentAt()
		if !ok {
			t.Fatalf("node %d has no join time", i)
		}
		jt := sim.TimeAt(at)
		if jt < earliest {
			earliest = jt
		}
		if jt > latest {
			latest = jt
		}
	}
	t.Logf("join times: earliest %v, latest %v", earliest, latest)
	if earliest > 20*time.Second {
		t.Fatalf("earliest join %v, want within 20 s", earliest)
	}
	if latest < earliest+2*time.Second {
		t.Fatalf("join wave not staggered: earliest %v, latest %v", earliest, latest)
	}
}

// TestScheduleConsistencyNetworkWide verifies the autonomous schedule's
// defining property across a converged 50-node network: for every
// (parent, child, role) relation, the parent's combined schedule listens
// in exactly the child's Eq. (4) slots on the child's channel lane —
// except where one of the parent's own higher-priority slots (sync,
// shared, its own transmissions) overrides, which is the Eq. (6) skip the
// paper prices.
func TestScheduleConsistencyNetworkWide(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 29)
	cfg := DefaultConfig(topo.NumAPs)
	net, err := Build(nw, cfg, mac.DefaultConfig(), 29)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := nw.RunUntil(sim.SlotsFor(240*time.Second), func() bool {
		return net.JoinedCount() == topo.N()
	}); !done {
		t.Fatal("network did not converge")
	}
	nw.Run(sim.SlotsFor(30 * time.Second))

	base := nw.ASN() - nw.ASN()%cfg.AppFrameLen // align to an app frame
	pairs, skips, listens := 0, 0, 0
	for p := 1; p <= topo.N(); p++ {
		parent := net.Stacks[p]
		for child, role := range parent.Router().Children() {
			pairs++
			// Which attempts must the parent cover?
			var atts []int
			if role == RoleBestParent {
				for a := 1; a < cfg.Attempts; a++ {
					atts = append(atts, a)
				}
			} else {
				atts = []int{cfg.Attempts}
			}
			for _, a := range atts {
				offset := AppTxSlot(child, cfg.NumAPs, cfg.Attempts, a, cfg.AppFrameLen)
				asn := base + offset
				got := parent.Assignment(asn)
				switch got.Role {
				case mac.RoleRxData:
					listens++
					if got.ChannelOffset != appLane(child) {
						t.Fatalf("parent %d listens for child %d on lane %d, want %d",
							p, child, got.ChannelOffset, appLane(child))
					}
				case mac.RoleTxEB, mac.RoleRxEB, mac.RoleShared, mac.RoleTxData:
					skips++ // a legitimate higher-priority override
				default:
					t.Fatalf("parent %d sleeps through child %d attempt %d slot",
						p, child, a)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no parent/child relations formed")
	}
	skipRate := float64(skips) / float64(skips+listens)
	t.Logf("checked %d relations: %d listen slots, %d overridden (%.1f%%; Eq. 6 predicts ~%.1f%%)",
		pairs, listens, skips, 100*skipRate, 100*ExpectedAppSkip(cfg))
	// The override rate must be of the same order as the Eq. (6)
	// prediction, not structural breakage.
	if skipRate > 5*ExpectedAppSkip(cfg)+0.05 {
		t.Fatalf("override rate %.2f far above the Eq. (6) prediction %.3f",
			skipRate, ExpectedAppSkip(cfg))
	}
}
