package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// fig7Config is the worked example of the paper's Figure 7: slotframe
// lengths 61 / 11 / 7, two access points, three attempts per packet.
func fig7Config() Config {
	cfg := DefaultConfig(2)
	cfg.SyncFrameLen = 61
	cfg.RoutingFrameLen = 11
	cfg.AppFrameLen = 7
	return cfg
}

func newStack(t *testing.T, id int, isAP bool, cfg Config) *Stack {
	t.Helper()
	s, err := NewStack(topoID(id), isAP, cfg, rand.New(rand.NewSource(int64(id))))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppTxSlotEquationFour(t *testing.T) {
	// Figure 7: N_AP = 2, A = 3, L_app = 7. Node #3 owns slots 1..3
	// (1-based) = offsets 0..2; node #4 owns slots 4..6 = offsets 3..5.
	tests := []struct {
		node    int
		attempt int
		want    int64
	}{
		{3, 1, 0}, {3, 2, 1}, {3, 3, 2},
		{4, 1, 3}, {4, 2, 4}, {4, 3, 5},
	}
	for _, tt := range tests {
		got := AppTxSlot(topoID(tt.node), 2, 3, tt.attempt, 7)
		if got != tt.want {
			t.Fatalf("AppTxSlot(node %d, attempt %d) = %d, want %d",
				tt.node, tt.attempt, got, tt.want)
		}
	}
}

func TestAppTxSlotWrapsModuloFrame(t *testing.T) {
	// Node 60 with A=3, NAP=2, L=151: base slot 3*58-3+1 = 172 -> wraps.
	got := AppTxSlot(topoID(60), 2, 3, 1, 151)
	if got != (172-1)%151 {
		t.Fatalf("wrapped slot = %d, want %d", got, (172-1)%151)
	}
	if got < 0 || got >= 151 {
		t.Fatalf("slot %d outside frame", got)
	}
}

// TestScheduleExampleFig7 reproduces the paper's Figure 7(e) combined
// schedule: at slot 0, nodes #1 and #3 use the slot for synchronisation
// traffic (highest priority) while #2 and #4 use it for routing.
func TestScheduleExampleFig7(t *testing.T) {
	cfg := fig7Config()
	s1 := newStack(t, 1, true, cfg)
	s2 := newStack(t, 2, true, cfg)
	s3 := newStack(t, 3, false, cfg)
	s4 := newStack(t, 4, false, cfg)

	// Wire the Figure 7(a) graph: #3 primary -> #1, backup -> #2;
	// #4 primary -> #2, backup -> #1.
	wireJoin := func(s *Stack, best, second int, bestETX, secondETX float64) {
		s.Router().OnJoinIn(0, topoID(best), JoinIn{Rank: 1, ETXw: 0}, rssForETX(bestETX))
		s.Router().OnJoinIn(0, topoID(second), JoinIn{Rank: 1, ETXw: 0}, rssForETX(secondETX))
	}
	wireJoin(s3, 1, 2, 1.0, 1.5)
	wireJoin(s4, 2, 1, 1.0, 1.5)
	// Complete the joined-callback confirmation handshake so data may
	// flow to the parents.
	confirm := func(s *Stack, best, second int) {
		cb := &sim.Frame{Kind: sim.KindJoinedCallback}
		s.OnTxResult(0, cb, topoID(best), true)
		s.OnTxResult(0, cb, topoID(second), true)
	}
	confirm(s3, 1, 2)
	confirm(s4, 2, 1)
	s1.Router().OnChildCallback(0, 3, JoinedCallback{Role: RoleBestParent})
	s1.Router().OnChildCallback(0, 4, JoinedCallback{Role: RoleSecondParent})
	s2.Router().OnChildCallback(0, 4, JoinedCallback{Role: RoleBestParent})
	s2.Router().OnChildCallback(0, 3, JoinedCallback{Role: RoleSecondParent})

	// Slot 0 (ASN 0): #1 transmits its EB, #3 listens for it (sync wins
	// over the shared routing slot); #2 and #4 get the routing slot.
	if got := s1.Assignment(0).Role; got != mac.RoleTxEB {
		t.Fatalf("node 1 slot 0 = %v, want TxEB", got)
	}
	if got := s3.Assignment(0).Role; got != mac.RoleRxEB {
		t.Fatalf("node 3 slot 0 = %v, want RxEB", got)
	}
	if got := s2.Assignment(0).Role; got != mac.RoleShared {
		t.Fatalf("node 2 slot 0 = %v, want Shared", got)
	}
	if got := s4.Assignment(0).Role; got != mac.RoleShared {
		t.Fatalf("node 4 slot 0 = %v, want Shared", got)
	}

	// Node #3 broadcasts its own EB in the third sync slot (offset 2).
	if got := s3.Assignment(2).Role; got != mac.RoleTxEB {
		t.Fatalf("node 3 slot 2 = %v, want TxEB", got)
	}

	// ASN 7: app slotframe offset 0 again, no sync/routing conflict.
	// #3 transmits its first attempt; #1 (its best parent) listens.
	a3 := s3.Assignment(7)
	if a3.Role != mac.RoleTxData || a3.Attempt != 1 {
		t.Fatalf("node 3 slot 7 = %+v, want TxData attempt 1", a3)
	}
	if got := s1.Assignment(7).Role; got != mac.RoleRxData {
		t.Fatalf("node 1 slot 7 = %v, want RxData", got)
	}

	// #3's third attempt (offset 2 of the app frame, e.g. ASN 16) goes to
	// the backup parent #2, which must listen.
	a3 = s3.Assignment(16)
	if a3.Role != mac.RoleTxData || a3.Attempt != 3 {
		t.Fatalf("node 3 slot 16 = %+v, want TxData attempt 3", a3)
	}
	if got := s2.Assignment(16).Role; got != mac.RoleRxData {
		t.Fatalf("node 2 slot 16 = %v, want RxData", got)
	}
	// And routing confirms: attempt 3 targets the backup parent.
	if hop, ok := s3.NextHop(0, 3); !ok || hop != 2 {
		t.Fatalf("node 3 attempt 3 next hop = (%d, %v), want (2, true)", hop, ok)
	}
	if hop, ok := s3.NextHop(0, 1); !ok || hop != 1 {
		t.Fatalf("node 3 attempt 1 next hop = (%d, %v), want (1, true)", hop, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.SyncFrameLen = 10
	bad.RoutingFrameLen = 4 // gcd 2
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted non-coprime slotframe lengths")
	}
	bad = cfg
	bad.NumAPs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero APs")
	}
	bad = cfg
	bad.Attempts = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero attempts")
	}
	bad = cfg
	bad.AppFrameLen = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero-length slotframe")
	}
}

func TestTrickleGatesJoinIn(t *testing.T) {
	cfg := fig7Config()
	cfg.Trickle = trickle.Config{IminSlots: 20, Doublings: 5, K: 0}
	s := newStack(t, 3, false, cfg)
	s.OnSynced(0)

	// Join via the public frame path so the stack queues its callback.
	join := &sim.Frame{Kind: sim.KindJoinIn, Src: 1,
		Payload: JoinIn{Rank: 1, ETXw: 0}.Marshal()}
	s.OnFrame(0, join, rssForETX(1.0))

	// The first shared frames must be the joined-callback to the parent
	// (a persistence coin may defer it a few slots), with acknowledgement
	// required.
	var f *sim.Frame
	var needAck bool
	for i := 0; i < 32 && f == nil; i++ {
		f, needAck = s.SharedFrame(sim.ASN(i))
	}
	if f == nil || f.Kind != sim.KindJoinedCallback || f.Dst != 1 {
		t.Fatalf("expected joined-callback to node 1, got %+v", f)
	}
	if !needAck {
		t.Fatal("joined-callback must be acknowledged")
	}
	s.OnTxResult(0, f, f.Dst, true)

	// Walk the slot loop: Assignment advances Trickle each slot; shared
	// slots (offset 0 of the routing frame) drain the latch. The join-in
	// rate must decay from startup to steady state.
	fires := func(fromASN, slots int64) int {
		n := 0
		for asn := fromASN; asn < fromASN+slots; asn++ {
			s.Assignment(asn)
			if asn%cfg.RoutingFrameLen == 0 {
				if f, _ := s.SharedFrame(asn); f != nil && f.Kind == sim.KindJoinIn {
					n++
				}
			}
		}
		return n
	}
	early := fires(1, 500)
	late := fires(50000, 500)
	if early == 0 {
		t.Fatal("no join-in beacons after joining")
	}
	if late >= early {
		t.Fatalf("join-in rate did not decay: early %d, late %d", early, late)
	}
}

func topoID(i int) topology.NodeID { return topology.NodeID(i) }

// refSchedule is the reference the scheduler's sorted tables are checked
// against: the combined schedule written out from the paper's rules with
// the two plain maps (slot offset -> attempt, slot offset -> child) the
// scheduler used to keep.
type refSchedule struct {
	id      topology.NodeID
	best    topology.NodeID
	cfg     Config
	txSlots map[int64]int
	rxSlots map[int64]topology.NodeID
}

func newRefSchedule(id topology.NodeID, isAP bool, best topology.NodeID, cfg Config,
	children map[topology.NodeID]ParentRole) *refSchedule {
	r := &refSchedule{id: id, best: best, cfg: cfg,
		txSlots: map[int64]int{}, rxSlots: map[int64]topology.NodeID{}}
	if !isAP {
		for p := 1; p <= cfg.Attempts; p++ {
			r.txSlots[AppTxSlot(id, cfg.NumAPs, cfg.Attempts, p, cfg.AppFrameLen)] = p
		}
	}
	claim := func(child topology.NodeID, p int) {
		slot := AppTxSlot(child, cfg.NumAPs, cfg.Attempts, p, cfg.AppFrameLen)
		if cur, ok := r.rxSlots[slot]; !ok || child < cur {
			r.rxSlots[slot] = child
		}
	}
	for child, role := range children {
		switch {
		case role == RoleSecondParent:
			claim(child, cfg.Attempts)
		case cfg.Attempts == 1:
			claim(child, 1)
		default:
			for p := 1; p < cfg.Attempts; p++ {
				claim(child, p)
			}
		}
	}
	return r
}

func (r *refSchedule) assignment(asn sim.ASN) mac.Assignment {
	switch off := asn % r.cfg.SyncFrameLen; {
	case off == int64(r.id-1)%r.cfg.SyncFrameLen:
		return mac.Assignment{Role: mac.RoleTxEB, ChannelOffset: syncChannelOffset}
	case r.best != 0 && off == int64(r.best-1)%r.cfg.SyncFrameLen:
		return mac.Assignment{Role: mac.RoleRxEB, ChannelOffset: syncChannelOffset}
	}
	if asn%r.cfg.RoutingFrameLen == 0 {
		return mac.Assignment{Role: mac.RoleShared, ChannelOffset: routingChannelOffset}
	}
	off := asn % r.cfg.AppFrameLen
	if p, ok := r.txSlots[off]; ok {
		return mac.Assignment{Role: mac.RoleTxData, ChannelOffset: appLane(r.id), Attempt: p}
	}
	if child, ok := r.rxSlots[off]; ok {
		return mac.Assignment{Role: mac.RoleRxData, ChannelOffset: appLane(child)}
	}
	return mac.Assignment{Role: mac.RoleSleep}
}

// TestNextActiveMatchesBruteForce pins the scheduler's sorted cell tables
// on random configurations — frames short enough that Eq. (4) offsets wrap,
// attempts overwrite each other and children collide on a cell: Assignment
// must agree slot by slot with the map-based reference, and NextActive
// must name exactly the first slot at or after `after` whose assignment is
// not sleep — never later (the node would sleep through its own cell) and,
// as the schedule is the union of its frames, never earlier either.
func TestNextActiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		cfg := DefaultConfig(1 + rng.Intn(3))
		cfg.SyncFrameLen = 2 + rng.Int63n(60)
		cfg.RoutingFrameLen = 2 + rng.Int63n(30)
		cfg.AppFrameLen = 1 + rng.Int63n(40)
		cfg.Attempts = 1 + rng.Intn(5)
		id := topoID(1 + rng.Intn(70))
		isAP := int(id) <= cfg.NumAPs

		router := NewRouter(id, isAP, 1<<40, 1<<40, 1)
		var best topology.NodeID
		if !isAP && rng.Intn(4) > 0 {
			best = topoID(1 + rng.Intn(70))
			if best == id {
				best++
			}
			router.OnJoinIn(0, best, JoinIn{Rank: 1, ETXw: 0}, rssForETX(1))
			if got, _ := router.Parents(); got != best {
				t.Fatalf("trial %d: best parent %d, want %d", trial, got, best)
			}
		}
		s := newScheduler(id, isAP, cfg, router)

		// Three rounds on one scheduler: the child set grows and roles
		// flip in between, so the listen table is rebuilt, not just built.
		children := map[topology.NodeID]ParentRole{}
		for round := 0; round < 3; round++ {
			for n := rng.Intn(8); n > 0; n-- {
				child := topoID(1 + rng.Intn(90))
				role := RoleBestParent
				if rng.Intn(3) == 0 {
					role = RoleSecondParent
				}
				children[child] = role
				router.OnChildCallback(0, child, JoinedCallback{Role: role})
			}
			ref := newRefSchedule(id, isAP, best, cfg, children)

			horizon := 3 * cfg.SyncFrameLen * cfg.AppFrameLen
			// next is the first non-sleep slot >= asn, listen the first that is
			// neither sleep nor an own transmit cell, filled walking down.
			next, listen := sim.ASN(-1), sim.ASN(-1)
			for asn := horizon + cfg.SyncFrameLen; asn >= 0; asn-- {
				want := ref.assignment(asn)
				if asn < horizon {
					if got := s.Assignment(asn); got != want {
						t.Fatalf("trial %d round %d (id %d, cfg %d/%d/%d A=%d): Assignment(%d) = %+v, reference %+v",
							trial, round, id, cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen, cfg.Attempts, asn, got, want)
					}
				}
				if want.Role != mac.RoleSleep {
					next = asn
				}
				if want.Role != mac.RoleSleep && want.Role != mac.RoleTxData {
					listen = asn
				}
				if asn < horizon {
					if got := s.NextActive(asn, true); got != next {
						t.Fatalf("trial %d round %d (id %d, cfg %d/%d/%d A=%d): NextActive(%d, queued) = %d, first non-sleep slot is %d",
							trial, round, id, cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen, cfg.Attempts, asn, got, next)
					}
					if got := s.NextActive(asn, false); got != listen {
						t.Fatalf("trial %d round %d (id %d, cfg %d/%d/%d A=%d): NextActive(%d, idle) = %d, first slot neither sleep nor own transmit is %d",
							trial, round, id, cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen, cfg.Attempts, asn, got, listen)
					}
				}
			}
		}
	}
}

// TestSchedulerFollowsRouter: the scheduler caches what changes only with
// the router — its parent's sync offset, its one application-cell table —
// and must answer like a reference that re-derives everything from the
// router on every call, while parents come and go (advertisements, failed
// transmissions, expiry), children join, flip roles and expire, the stack
// is Reset, and a state captured from a twin (whose child version often
// equals this stack's) is restored over it.
func TestSchedulerFollowsRouter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	build := func(id topology.NodeID, isAP bool, cfg Config, seed int64) *Stack {
		src := detrand.New(seed)
		s, err := NewStack(id, isAP, cfg, rand.New(src))
		if err != nil {
			t.Fatal(err)
		}
		s.rngSrc = src
		return s
	}
	ref := func(s *Stack, asn sim.ASN) mac.Assignment {
		best, _ := s.router.Parents()
		return newRefSchedule(s.id, s.isAP, best, s.cfg, s.router.Children()).assignment(asn)
	}
	var parentMoves, restores, resets int
	for trial := 0; trial < 60; trial++ {
		cfg := DefaultConfig(1 + rng.Intn(3))
		for {
			cfg.SyncFrameLen = 2 + rng.Int63n(40)
			cfg.RoutingFrameLen = 2 + rng.Int63n(20)
			cfg.AppFrameLen = 1 + rng.Int63n(30)
			if cfg.Validate() == nil {
				break
			}
		}
		cfg.Attempts = 1 + rng.Intn(4)
		cfg.NeighborTimeout, cfg.ChildTimeout = 3*time.Second, 2*time.Second
		id := topoID(1 + rng.Intn(40))
		isAP := int(id) <= cfg.NumAPs
		s, twin := build(id, isAP, cfg, int64(trial)), build(id, isAP, cfg, int64(trial)+1000)

		asn := sim.ASN(0)
		for step := 0; step < 40; step++ {
			target := s
			if rng.Intn(3) == 0 {
				target = twin
			}
			r := target.router
			before, _ := s.router.Parents()
			switch op := rng.Intn(10); {
			case op < 3: // an advertisement: may adopt, switch or keep a parent
				from := topoID(1 + rng.Intn(40))
				if from != id {
					r.OnJoinIn(asn, from, JoinIn{Rank: uint16(1 + rng.Intn(3)), ETXw: 2 * rng.Float64()}, rssForETX(1+2*rng.Float64()))
				}
			case op < 4: // a lost transmission to the best parent
				if best, _ := r.Parents(); best != 0 {
					r.OnTxResult(asn, best, false)
				}
			case op < 7: // a child joins or flips its role
				role := RoleBestParent
				if rng.Intn(3) == 0 {
					role = RoleSecondParent
				}
				r.OnChildCallback(asn, topoID(1+rng.Intn(40)), JoinedCallback{Role: role})
			case op < 8: // time passes: neighbours and children expire
				asn += sim.ASN(rng.Intn(400))
				r.Maintain(asn)
			case op < 9:
				target.Reset()
				if target == s {
					resets++
				}
			default:
				st, err := twin.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				restores++
			}
			if after, _ := s.router.Parents(); after != before {
				parentMoves++
			}

			// Walk a window down from its end: next is the first slot at or
			// after asn that the reference does not answer with sleep.
			span := 2 * max(cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen)
			base := asn + rng.Int63n(1000)
			next, listen := sim.ASN(-1), sim.ASN(-1)
			for slot := base + 2*span; slot >= base; slot-- {
				want := ref(s, slot)
				if want.Role != mac.RoleSleep {
					next = slot
				}
				if want.Role != mac.RoleSleep && want.Role != mac.RoleTxData {
					listen = slot
				}
				if slot >= base+span {
					continue
				}
				if got := s.sched.Assignment(slot); got != want {
					t.Fatalf("trial %d step %d (id %d, cfg %d/%d/%d A=%d): Assignment(%d) = %+v, reference %+v",
						trial, step, id, cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen, cfg.Attempts, slot, got, want)
				}
				if got := s.sched.NextActive(slot, true); got != next {
					t.Fatalf("trial %d step %d (id %d, cfg %d/%d/%d A=%d): NextActive(%d, queued) = %d, reference %d",
						trial, step, id, cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen, cfg.Attempts, slot, got, next)
				}
				if got := s.sched.NextActive(slot, false); got != listen {
					t.Fatalf("trial %d step %d (id %d, cfg %d/%d/%d A=%d): NextActive(%d, idle) = %d, reference %d",
						trial, step, id, cfg.SyncFrameLen, cfg.RoutingFrameLen, cfg.AppFrameLen, cfg.Attempts, slot, got, listen)
				}
			}
		}
	}
	if parentMoves == 0 || restores == 0 || resets == 0 {
		t.Fatalf("%d parent moves, %d restores, %d resets: a case is never exercised", parentMoves, restores, resets)
	}
	t.Logf("%d parent moves, %d restores, %d resets", parentMoves, restores, resets)
}
