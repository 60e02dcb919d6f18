package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/topology"
)

// TestAppTxSlotAlwaysInFrame: Eq. (4) slots stay inside the slotframe for
// any node ID, AP count, attempt count and frame length.
func TestAppTxSlotAlwaysInFrame(t *testing.T) {
	f := func(id uint16, numAPs uint8, attempts uint8, p uint8, frameLen uint16) bool {
		a := int(attempts)%8 + 1
		nap := int(numAPs)%8 + 1
		fl := int64(frameLen)%1000 + 1
		pp := int(p)%a + 1
		slot := AppTxSlot(topology.NodeID(id), nap, a, pp, fl)
		return slot >= 0 && slot < fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppTxSlotsDistinctWithinNode: a node's A attempt slots never collide
// with each other as long as the frame is long enough.
func TestAppTxSlotsDistinctWithinNode(t *testing.T) {
	f := func(id uint16, frameOdd uint8) bool {
		fl := int64(frameOdd)%500 + 7 // >= attempts
		seen := map[int64]bool{}
		for p := 1; p <= 3; p++ {
			s := AppTxSlot(topology.NodeID(id), 2, 3, p, fl)
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedETXBounded: Eq. (1) output always lies between the primary
// and backup accumulated ETX (the weights sum to 1 and are in [0, 1]).
func TestWeightedETXBounded(t *testing.T) {
	f := func(bp, a, b float64) bool {
		etxBP := 1 + math.Mod(math.Abs(bp), 15)  // 1..16
		lo := 1 + math.Mod(math.Abs(a), 30)      // 1..31
		hi := lo + math.Mod(math.Abs(b), 30) + 1 // > lo
		w := weightedETX(etxBP, lo, hi)
		return w >= lo-1e-9 && w <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRouterInvariantsUnderRandomEvents drives a router with arbitrary
// event sequences and checks its structural invariants after every step:
//
//   - best != second when both set;
//   - joined implies finite advertised ETXw and non-infinite rank;
//   - the neighbour-table rank of each selected parent is strictly below
//     the node's own rank (loop-freedom);
//   - ETXw is never negative.
func TestRouterInvariantsUnderRandomEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		r := NewRouter(100, false, 1<<40, 1<<40, 4)
		for step := 0; step < 120; step++ {
			from := topology.NodeID(rng.Intn(20) + 1)
			switch rng.Intn(4) {
			case 0, 1:
				j := JoinIn{
					Rank: uint16(rng.Intn(60) + 1),
					ETXw: rng.Float64() * 12,
				}
				if rng.Intn(10) == 0 {
					j.Rank = RankInfinity
				}
				r.OnJoinIn(int64(step), from, j, -60-rng.Float64()*35)
			case 2:
				r.OnTxResult(int64(step), from, rng.Intn(3) > 0)
			case 3:
				r.Maintain(int64(step))
			}
			checkRouterInvariants(t, r, trial, step)
		}
	}
}

func checkRouterInvariants(t *testing.T, r *Router, trial, step int) {
	t.Helper()
	best, second := r.Parents()
	if best != 0 && best == second {
		t.Fatalf("trial %d step %d: best == second == %d", trial, step, best)
	}
	if second != 0 && best == 0 {
		t.Fatalf("trial %d step %d: second parent without best", trial, step)
	}
	if r.Joined() {
		adv, ok := r.Advertisement()
		if !ok {
			t.Fatalf("trial %d step %d: joined but not advertising", trial, step)
		}
		if adv.Rank >= RankInfinity {
			t.Fatalf("trial %d step %d: joined with infinite rank", trial, step)
		}
		if adv.ETXw < 0 || math.IsNaN(adv.ETXw) || math.IsInf(adv.ETXw, 0) {
			t.Fatalf("trial %d step %d: bad advertised ETXw %v", trial, step, adv.ETXw)
		}
	} else if r.Rank() != RankInfinity {
		t.Fatalf("trial %d step %d: unjoined with finite rank %d", trial, step, r.Rank())
	}
	for _, parent := range []topology.NodeID{best, second} {
		if parent == 0 {
			continue
		}
		e, ok := r.neighbors.Get(parent)
		if !ok {
			t.Fatalf("trial %d step %d: parent %d not in neighbour table", trial, step, parent)
		}
		if e.rank >= r.Rank() {
			t.Fatalf("trial %d step %d: parent %d rank %d >= own rank %d",
				trial, step, parent, e.rank, r.Rank())
		}
	}
}

// TestStackAssignmentsDeterministic: the combined schedule is a pure
// function of the slot for fixed routing state.
func TestStackAssignmentsDeterministic(t *testing.T) {
	s := newStack(t, 7, false, DefaultConfig(2))
	s.Router().OnJoinIn(0, 1, JoinIn{Rank: 1, ETXw: 0}, -60)
	for asn := int64(0); asn < 2000; asn++ {
		a1 := s.sched.Assignment(asn)
		a2 := s.sched.Assignment(asn)
		if a1 != a2 {
			t.Fatalf("assignment not deterministic at ASN %d: %+v vs %+v", asn, a1, a2)
		}
	}
}

// TestSchedulerNeverDoubleBooks: in every slot the node has exactly one
// role, and its EB slot is never overridden (sync has top priority).
func TestSchedulerNeverDoubleBooks(t *testing.T) {
	cfg := DefaultConfig(2)
	s := newStack(t, 9, false, cfg)
	s.Router().OnJoinIn(0, 1, JoinIn{Rank: 1, ETXw: 0}, -60)
	s.Router().OnChildCallback(0, 15, JoinedCallback{Role: RoleBestParent})

	ebSlot := int64(9 - 1)
	hyper := cfg.SyncFrameLen * cfg.RoutingFrameLen // sample window
	for asn := int64(0); asn < hyper; asn++ {
		a := s.sched.Assignment(asn)
		if asn%cfg.SyncFrameLen == ebSlot && a.Role != mac.RoleTxEB {
			t.Fatalf("EB slot overridden at ASN %d by role %v", asn, a.Role)
		}
	}
}
