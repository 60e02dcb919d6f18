package core

import (
	"math"
	"testing"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// rssForETX inverts the paper's RSS-to-initial-ETX mapping so router tests
// can inject exact link ETX values.
func rssForETX(etx float64) float64 {
	return -60 - (etx-1)*15
}

func newFieldRouter(id topology.NodeID) *Router {
	return NewRouter(id, false, 1<<40, 1<<40, 1)
}

func joinIn(t *testing.T, r *Router, asn int64, from topology.NodeID,
	rank uint16, etxw, linkETX float64) bool {
	t.Helper()
	return r.OnJoinIn(asn, from, JoinIn{Rank: rank, ETXw: etxw}, rssForETX(linkETX))
}

func TestAPRouterIsRoot(t *testing.T) {
	r := NewRouter(1, true, 1000, 1000, 1)
	if r.Rank() != 1 {
		t.Fatalf("AP rank = %d, want 1", r.Rank())
	}
	if r.ETXw() != 0 {
		t.Fatalf("AP ETXw = %f, want 0", r.ETXw())
	}
	adv, ok := r.Advertisement()
	if !ok || adv.Rank != 1 || adv.ETXw != 0 {
		t.Fatalf("AP advertisement = %+v/%v, want rank 1, etxw 0", adv, ok)
	}
	// APs never select parents.
	if changed := joinIn(t, r, 0, 5, 2, 1.0, 1.0); changed {
		t.Fatal("AP changed parents on a join-in")
	}
}

func TestUnjoinedRouterDoesNotAdvertise(t *testing.T) {
	r := newFieldRouter(7)
	if _, ok := r.Advertisement(); ok {
		t.Fatal("unjoined node advertised")
	}
	if r.Rank() != RankInfinity {
		t.Fatalf("unjoined rank = %d, want infinity", r.Rank())
	}
	if r.Joined() {
		t.Fatal("unjoined node reports joined")
	}
}

func TestFirstJoinInAdoptsBestParent(t *testing.T) {
	r := newFieldRouter(5)
	if changed := joinIn(t, r, 10, 1, 1, 0, 1.0); !changed {
		t.Fatal("first join-in did not change parents")
	}
	best, second := r.Parents()
	if best != 1 || second != 0 {
		t.Fatalf("parents = (%d, %d), want (1, 0)", best, second)
	}
	if r.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", r.Rank())
	}
	at, ok := r.FirstParentAt()
	if !ok || at != 10 {
		t.Fatalf("FirstParentAt = (%d, %v), want (10, true)", at, ok)
	}
}

// TestRoutingExampleFig6 replays the paper's Figure 6 worked example and
// checks the generated graph routes match Figure 6(b):
// primary paths #3 -> #4 -> #6 -> AP2 and #5 -> AP1; backup links
// #3 -> #5, #4 -> #5, #5 -> AP2 and #6 -> AP1. Node IDs here: AP1=1,
// AP2=2, and field devices keep their figure numbers (3, 4, 5, 6).
func TestRoutingExampleFig6(t *testing.T) {
	r5 := newFieldRouter(5)
	r6 := newFieldRouter(6)
	r4 := newFieldRouter(4)
	r3 := newFieldRouter(3)

	// APs start broadcasting; #5 and #6 join.
	joinIn(t, r5, 1, 1, 1, 0, 1.0) // ETX(5, AP1) = 1.0
	joinIn(t, r5, 2, 2, 1, 0, 1.2) // ETX(5, AP2) = 1.2
	joinIn(t, r6, 1, 2, 1, 0, 1.0) // ETX(6, AP2) = 1.0
	joinIn(t, r6, 2, 1, 1, 0, 1.5) // ETX(6, AP1) = 1.5

	if best, second := r5.Parents(); best != 1 || second != 2 {
		t.Fatalf("#5 parents = (%d, %d), want (AP1, AP2)", best, second)
	}
	if best, second := r6.Parents(); best != 2 || second != 1 {
		t.Fatalf("#6 parents = (%d, %d), want (AP2, AP1)", best, second)
	}
	if r5.Rank() != 2 || r6.Rank() != 2 {
		t.Fatalf("ranks #5=%d #6=%d, want 2 and 2", r5.Rank(), r6.Rank())
	}

	// The #5 <-> #6 link must not be selected for routing: same rank.
	adv6, _ := r6.Advertisement()
	joinIn(t, r5, 3, 6, adv6.Rank, adv6.ETXw, 1.0)
	if best, second := r5.Parents(); best != 1 || second != 2 {
		t.Fatalf("#5 adopted same-rank #6: parents (%d, %d)", best, second)
	}

	// #4 hears #6 (best) and #5 (backup).
	adv5, _ := r5.Advertisement()
	joinIn(t, r4, 4, 6, adv6.Rank, adv6.ETXw, 1.0) // ETXa(4,6) = 1 + ETXw(6)
	joinIn(t, r4, 5, 5, adv5.Rank, adv5.ETXw, 1.5) // ETXa(4,5) = 1.5 + ETXw(5)
	if best, second := r4.Parents(); best != 6 || second != 5 {
		t.Fatalf("#4 parents = (%d, %d), want (6, 5)", best, second)
	}
	if r4.Rank() != 3 {
		t.Fatalf("#4 rank = %d, want 3", r4.Rank())
	}

	// #3 compares ETXa(3,4) with ETXa(3,5).
	adv4, _ := r4.Advertisement()
	joinIn(t, r3, 6, 4, adv4.Rank, adv4.ETXw, 1.0) // ETXa = 1 + ETXw(4)
	joinIn(t, r3, 7, 5, adv5.Rank, adv5.ETXw, 2.5) // ETXa = 2.5 + ETXw(5)
	if best, second := r3.Parents(); best != 4 || second != 5 {
		t.Fatalf("#3 parents = (%d, %d), want (4, 5)", best, second)
	}
	if r3.Rank() != 4 {
		t.Fatalf("#3 rank = %d, want 4", r3.Rank())
	}
}

func TestWeightedETXEquationOne(t *testing.T) {
	// With a perfect link to the best parent (ETX 1), w1 = 1 and the
	// backup path contributes nothing.
	if got := weightedETX(1.0, 2.0, 9.0); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("weightedETX(1, 2, 9) = %f, want 2", got)
	}
	// ETX_bp = 2: fail prob per attempt 0.5, w2 = 0.25, w1 = 0.75.
	want := 0.75*3.0 + 0.25*5.0
	if got := weightedETX(2.0, 3.0, 5.0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("weightedETX(2, 3, 5) = %f, want %f", got, want)
	}
	// Without a backup the primary accumulates fully.
	if got := weightedETX(2.0, 3.0, math.Inf(1)); got != 3.0 {
		t.Fatalf("weightedETX without backup = %f, want 3", got)
	}
}

func TestBetterParentReplacesBest(t *testing.T) {
	r := newFieldRouter(9)
	joinIn(t, r, 1, 4, 2, 1.0, 2.0) // etxa = 3.0
	if best, _ := r.Parents(); best != 4 {
		t.Fatalf("best = %d, want 4", best)
	}
	// A strictly better route shows up: becomes best, old best demotes to
	// second (it has rank 2 < new rank 2... rank(5)=1+1=2; old best rank 2
	// is NOT < 2, so it cannot be the backup).
	changed := joinIn(t, r, 2, 5, 1, 0, 1.0) // etxa = 1.0
	if !changed {
		t.Fatal("better parent did not trigger a change")
	}
	best, second := r.Parents()
	if best != 5 {
		t.Fatalf("best = %d, want 5", best)
	}
	// Node 4 advertises rank 2 == our new rank 2: loop rule excludes it.
	if second != 0 {
		t.Fatalf("second = %d, want none (rank rule)", second)
	}
}

func TestSecondParentRequiresLowerRank(t *testing.T) {
	r := newFieldRouter(9)
	joinIn(t, r, 1, 4, 1, 0, 1.0) // best: rank 1 root, our rank 2
	joinIn(t, r, 2, 5, 2, 1.0, 1.0)
	// Node 5 has rank 2 == our rank: not eligible as backup.
	if _, second := r.Parents(); second != 0 {
		t.Fatalf("second = %d, want none", second)
	}
	// Node 6 at rank 1 qualifies.
	joinIn(t, r, 3, 6, 1, 0, 1.4)
	if _, second := r.Parents(); second != 6 {
		t.Fatalf("second = %d, want 6", second)
	}
}

func TestTxFailuresSteerAwayFromDegradedParent(t *testing.T) {
	r := newFieldRouter(9)
	joinIn(t, r, 1, 4, 1, 0, 1.0)
	joinIn(t, r, 2, 5, 1, 0, 1.2)
	if best, second := r.Parents(); best != 4 || second != 5 {
		t.Fatalf("parents = (%d, %d), want (4, 5)", best, second)
	}
	// Node 4 dies: transmissions fail, its link ETX inflates, and the
	// router promotes node 5 without waiting for control traffic.
	changed := false
	for i := 0; i < 50 && !changed; i++ {
		changed = r.OnTxResult(int64(10+i), 4, false)
		if best, _ := r.Parents(); best == 5 {
			break
		}
	}
	if best, _ := r.Parents(); best != 5 {
		t.Fatalf("best = %d after sustained failures, want 5", best)
	}
}

func TestMaintainExpiresNeighborsAndChildren(t *testing.T) {
	r := NewRouter(9, false, 100, 100, 1)
	joinIn(t, r, 1, 4, 1, 0, 1.0)
	r.OnChildCallback(1, 12, JoinedCallback{Role: RoleBestParent})
	if len(r.Children()) != 1 {
		t.Fatal("child not recorded")
	}
	v := r.ChildVersion()

	// Within the timeout nothing expires.
	if r.Maintain(50) {
		t.Fatal("maintain changed parents prematurely")
	}
	if len(r.Children()) != 1 {
		t.Fatal("child expired prematurely")
	}

	// After the timeout both the stale neighbour (parent!) and the child
	// disappear.
	changed := r.Maintain(200)
	if !changed {
		t.Fatal("losing the only parent did not report a change")
	}
	if best, _ := r.Parents(); best != 0 {
		t.Fatalf("best = %d after expiry, want none", best)
	}
	if r.Rank() != RankInfinity {
		t.Fatalf("rank = %d after expiry, want infinity", r.Rank())
	}
	if len(r.Children()) != 0 {
		t.Fatal("child not expired")
	}
	if r.ChildVersion() == v {
		t.Fatal("child version not bumped on expiry")
	}
}

func TestChildRefreshPreventsExpiry(t *testing.T) {
	r := NewRouter(9, false, 1000, 100, 1)
	r.OnChildCallback(1, 12, JoinedCallback{Role: RoleBestParent})
	r.RefreshChild(90, 12)
	r.Maintain(150) // 150-90 < 100: still fresh
	if len(r.Children()) != 1 {
		t.Fatal("refreshed child expired")
	}
}

func TestAdvertisementTracksETXw(t *testing.T) {
	r := newFieldRouter(9)
	joinIn(t, r, 1, 4, 1, 0, 1.0)
	adv, ok := r.Advertisement()
	if !ok {
		t.Fatal("joined node does not advertise")
	}
	if adv.Rank != 2 {
		t.Fatalf("advertised rank = %d, want 2", adv.Rank)
	}
	if math.Abs(adv.ETXw-1.0) > 1e-9 {
		t.Fatalf("advertised ETXw = %f, want 1.0 (perfect single path)", adv.ETXw)
	}
}

func TestParentChangesCounter(t *testing.T) {
	r := newFieldRouter(9)
	if r.ParentChanges() != 0 {
		t.Fatal("fresh router has parent changes")
	}
	joinIn(t, r, 1, 4, 1, 0, 1.0)
	joinIn(t, r, 2, 5, 1, 0, 1.2) // adds a second parent: a change
	if got := r.ParentChanges(); got != 2 {
		t.Fatalf("parent changes = %d, want 2", got)
	}
	// Re-hearing the same state changes nothing.
	joinIn(t, r, 3, 4, 1, 0, 1.0)
	if got := r.ParentChanges(); got != 2 {
		t.Fatalf("parent changes after no-op = %d, want 2", got)
	}
}

// TestLosingEveryParentFiresOnlyTheJoinHook: when both parents expire,
// OnJoinedChange fires and OnRouteChange does not — a DiGS trace records
// no route event for the loss.
func TestLosingEveryParentFiresOnlyTheJoinHook(t *testing.T) {
	r := NewRouter(9, false, 100, 100, 1)
	joinIn(t, r, 1, 4, 1, 0, 1.0)
	joinIn(t, r, 1, 5, 1, 0, 1.5)
	if best, second := r.Parents(); best != 4 || second != 5 {
		t.Fatalf("parents = %d, %d, want 4, 5", best, second)
	}
	joins, routes := 0, 0
	r.OnJoinedChange = func() { joins++ }
	r.OnRouteChange = func(sim.ASN, topology.NodeID, topology.NodeID) { routes++ }
	if !r.Maintain(500) {
		t.Fatal("losing every parent did not report a change")
	}
	if best, second := r.Parents(); best != 0 || second != 0 || r.Joined() {
		t.Fatalf("after expiry: parents %d, %d, joined %v", best, second, r.Joined())
	}
	if joins != 1 || routes != 0 {
		t.Fatalf("join hook fired %d times, route hook %d (want 1, 0)", joins, routes)
	}
}
