package rpl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func rssForETX(etx float64) float64 { return -60 - (etx-1)*15 }

func dio(t *testing.T, r *Router, asn int64, from topology.NodeID,
	rank uint16, pathETX, linkETX float64) bool {
	t.Helper()
	return r.OnDIO(asn, from, DIO{Rank: rank, PathETX: pathETX}, rssForETX(linkETX))
}

func TestDIORoundTrip(t *testing.T) {
	f := func(rank uint16, p float32) bool {
		if p < 0 || math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			p = 1.5
		}
		in := DIO{Rank: rank, PathETX: float64(p)}
		out, err := UnmarshalDIO(in.Marshal())
		if err != nil {
			return false
		}
		return out.Rank == in.Rank && math.Abs(out.PathETX-in.PathETX) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDIORejectsBadPayload(t *testing.T) {
	if _, err := UnmarshalDIO([]byte{1}); err == nil {
		t.Fatal("accepted short payload")
	}
}

func TestRootState(t *testing.T) {
	r := NewRouter(1, true, 1000, 1)
	if r.Rank() != 1 || !r.Joined() {
		t.Fatalf("root rank %d joined %v", r.Rank(), r.Joined())
	}
	adv, ok := r.Advertisement()
	if !ok || adv.Rank != 1 || adv.PathETX != 0 {
		t.Fatalf("root advertisement %+v / %v", adv, ok)
	}
}

func TestSingleParentSelection(t *testing.T) {
	r := NewRouter(9, false, 1<<40, 1)
	if dio(t, r, 1, 4, 1, 0, 3.0); r.Parent() != 4 {
		t.Fatalf("parent %d, want 4", r.Parent())
	}
	// A better neighbour displaces it (improvement beyond hysteresis).
	if changed := dio(t, r, 2, 5, 1, 0, 1.0); !changed {
		t.Fatal("clearly better parent did not displace incumbent")
	}
	if r.Parent() != 5 {
		t.Fatalf("parent %d, want 5", r.Parent())
	}
	if r.Rank() != 2 {
		t.Fatalf("rank %d, want 2", r.Rank())
	}
}

func TestHysteresisDampsMarginalSwitch(t *testing.T) {
	r := NewRouter(9, false, 1<<40, 1)
	dio(t, r, 1, 4, 1, 0, 1.5)
	// Slightly better (by less than the margin): must not switch.
	if changed := dio(t, r, 2, 5, 1, 0, 1.3); changed {
		t.Fatal("marginal improvement flipped the parent")
	}
	if r.Parent() != 4 {
		t.Fatalf("parent %d, want 4 (hysteresis)", r.Parent())
	}
}

func TestParentLossLeavesDODAG(t *testing.T) {
	r := NewRouter(9, false, 100, 1)
	dio(t, r, 1, 4, 1, 0, 1.0)
	if !r.Joined() {
		t.Fatal("not joined after DIO")
	}
	// Only parent expires.
	if changed := r.Maintain(500); !changed {
		t.Fatal("losing the only parent did not report a change")
	}
	if r.Joined() || r.Parent() != 0 || r.Rank() != RankInfinity {
		t.Fatalf("state after loss: joined=%v parent=%d rank=%d",
			r.Joined(), r.Parent(), r.Rank())
	}
	if _, ok := r.Advertisement(); ok {
		t.Fatal("detached node still advertises")
	}
}

func TestRepairViaTxFailures(t *testing.T) {
	r := NewRouter(9, false, 1<<40, 1)
	dio(t, r, 1, 4, 1, 0, 1.0)
	dio(t, r, 2, 5, 1, 0, 1.4)
	if r.Parent() != 4 {
		t.Fatalf("parent %d, want 4", r.Parent())
	}
	switched := false
	for i := 0; i < 50 && !switched; i++ {
		r.OnTxResult(int64(10+i), 4, false)
		switched = r.Parent() == 5
	}
	if !switched {
		t.Fatal("sustained failures did not repair onto node 5")
	}
}

func TestFirstParentAtRecorded(t *testing.T) {
	r := NewRouter(9, false, 1<<40, 1)
	if _, ok := r.FirstParentAt(); ok {
		t.Fatal("join time set before joining")
	}
	dio(t, r, 42, 4, 1, 0, 1.0)
	at, ok := r.FirstParentAt()
	if !ok || at != 42 {
		t.Fatalf("FirstParentAt = (%d, %v), want (42, true)", at, ok)
	}
}

func TestParentChangesCount(t *testing.T) {
	r := NewRouter(9, false, 1<<40, 1)
	dio(t, r, 1, 4, 1, 0, 3.0)
	dio(t, r, 2, 5, 1, 0, 1.0) // switch
	dio(t, r, 3, 5, 1, 0, 1.0) // no-op
	if got := r.ParentChanges(); got != 2 {
		t.Fatalf("parent changes = %d, want 2", got)
	}
}

func TestRPLInvariantsUnderRandomEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		r := NewRouter(100, false, 1<<40, 4)
		for step := 0; step < 120; step++ {
			from := topology.NodeID(rng.Intn(20) + 1)
			switch rng.Intn(4) {
			case 0, 1:
				d := DIO{Rank: uint16(rng.Intn(60) + 1), PathETX: rng.Float64() * 12}
				if rng.Intn(10) == 0 {
					d.Rank = RankInfinity
				}
				r.OnDIO(int64(step), from, d, -60-rng.Float64()*35)
			case 2:
				r.OnTxResult(int64(step), from, rng.Intn(3) > 0)
			case 3:
				r.Maintain(int64(step))
			}
			if p := r.Parent(); p != 0 {
				if r.Rank() >= RankInfinity {
					t.Fatalf("trial %d step %d: parented with infinite rank", trial, step)
				}
				adv, ok := r.Advertisement()
				if !ok {
					t.Fatalf("trial %d step %d: parented but not advertising", trial, step)
				}
				if adv.PathETX < 0 || math.IsInf(adv.PathETX, 0) || math.IsNaN(adv.PathETX) {
					t.Fatalf("trial %d step %d: bad path ETX %v", trial, step, adv.PathETX)
				}
			} else if r.Rank() != RankInfinity {
				t.Fatalf("trial %d step %d: detached with finite rank %d", trial, step, r.Rank())
			}
			// Potential children all advertise above our rank.
			for _, c := range r.PotentialChildren() {
				if r.Rank() >= RankInfinity {
					t.Fatalf("trial %d step %d: children while detached", trial, step)
				}
				_ = c
			}
		}
	}
}

// TestLosingTheParentFiresOnlyTheJoinHook: when the only parent expires,
// OnJoinedChange fires and OnParentChange does not — an Orchestra or
// adaptive trace records no route event for the loss.
func TestLosingTheParentFiresOnlyTheJoinHook(t *testing.T) {
	r := NewRouter(9, false, 100, 1)
	dio(t, r, 1, 4, 1, 0, 1.0)
	if r.Parent() != 4 {
		t.Fatalf("parent = %d, want 4", r.Parent())
	}
	joins, routes := 0, 0
	r.OnJoinedChange = func() { joins++ }
	r.OnParentChange = func(sim.ASN, topology.NodeID, topology.NodeID) { routes++ }
	if !r.Maintain(500) {
		t.Fatal("losing the parent did not report a change")
	}
	if r.Parent() != 0 || r.Joined() {
		t.Fatalf("after expiry: parent %d, joined %v", r.Parent(), r.Joined())
	}
	if joins != 1 || routes != 0 {
		t.Fatalf("join hook fired %d times, route hook %d (want 1, 0)", joins, routes)
	}
}
