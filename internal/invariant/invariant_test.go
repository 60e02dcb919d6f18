package invariant

import (
	"bytes"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// joinedState is a healthy joined node snapshot at the given slot.
func joinedState(id topology.NodeID, parent topology.NodeID, now int64) NodeState {
	return NodeState{
		ID: id, Alive: true, Synced: true,
		Parent: parent, LastRx: sim.ASN(now),
	}
}

func codesOf(m *Monitor) []Code {
	var out []Code
	for _, v := range m.Violations() {
		out = append(out, v.Code)
	}
	return out
}

func TestCleanSnapshotIsViolationFree(t *testing.T) {
	m := New(Config{})
	states := []NodeState{
		{ID: 1, IsAP: true, Alive: true, Synced: true},
		joinedState(2, 1, 0),
		joinedState(3, 2, 0),
	}
	for now := int64(0); now <= 10000; now += 500 {
		for i := range states {
			if !states[i].IsAP {
				states[i].LastRx = sim.ASN(now)
			}
		}
		m.Poll(sim.ASN(now), states)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("clean network reported violations: %v", err)
	}
}

// A seeded two-node parent cycle must be flagged as a routing loop — but
// only once it survives the confirmation polls.
func TestDetectsSeededRoutingLoop(t *testing.T) {
	m := New(Config{})
	states := []NodeState{
		{ID: 1, IsAP: true, Alive: true, Synced: true},
		joinedState(2, 3, 0),
		joinedState(3, 2, 0),
		joinedState(4, 1, 0), // healthy bystander
	}
	m.Poll(0, states)
	if len(m.Violations()) != 0 {
		t.Fatalf("loop flagged on first sighting: %v", m.Violations())
	}
	m.Poll(500, states)
	got := codesOf(m)
	if len(got) != 2 || got[0] != CodeRoutingLoop || got[1] != CodeRoutingLoop {
		t.Fatalf("want routing-loop flagged for both cycle members, got %v", m.Violations())
	}
	// The episode reports once, not on every subsequent poll.
	m.Poll(1000, states)
	if len(m.Violations()) != 2 {
		t.Fatalf("loop re-reported while unchanged: %v", m.Violations())
	}
	// Breaking the cycle re-arms the tracker.
	states[1].Parent = 1
	m.Poll(1500, states)
	states[1].Parent = 3
	m.Poll(2000, states)
	m.Poll(2500, states)
	if len(m.Violations()) != 4 {
		t.Fatalf("re-formed loop not re-detected: %v", m.Violations())
	}
}

// Two distinct transmitters hitting the same physical channel in the same
// slot, recurring in the same schedule cell, is a conflicting schedule.
func TestDetectsSeededScheduleConflict(t *testing.T) {
	m := New(Config{FrameLen: 151})
	tx := func(asn int64, node topology.NodeID, ch uint8) {
		m.Record(telemetry.Event{
			ASN: asn, Type: telemetry.EvTxAttempt, Node: node,
			Kind: uint8(sim.KindData), Channel: ch, ChOff: 3,
		})
	}
	// Cell (offset 10, channel 5) double-booked in three slotframes.
	for rep := int64(0); rep < 3; rep++ {
		asn := 10 + rep*151
		tx(asn, 4, 5)
		tx(asn, 7, 5)
		// Same slot, different channel: never a conflict.
		tx(asn, 9, 6)
	}
	rep := m.Report()
	if len(rep.ByCode) != 1 || rep.ByCode[0].Code != CodeScheduleConflict || rep.ByCode[0].Count != 1 {
		t.Fatalf("want exactly one schedule-conflict violation, got %+v", rep.ByCode)
	}
	v := m.Violations()[0]
	if v.Node != 4 || v.Peer != 7 || v.Channel != 5 {
		t.Fatalf("conflict context wrong: %+v", v)
	}
}

// A chance collision (fewer recurrences than ConflictMinSlots) stays quiet.
func TestChanceCollisionBelowThresholdIgnored(t *testing.T) {
	m := New(Config{FrameLen: 151})
	for rep := int64(0); rep < 2; rep++ {
		asn := 10 + rep*151
		for _, n := range []topology.NodeID{4, 7} {
			m.Record(telemetry.Event{
				ASN: asn, Type: telemetry.EvTxAttempt, Node: n,
				Kind: uint8(sim.KindData), Channel: 5,
			})
		}
	}
	if err := m.Err(); err != nil {
		t.Fatalf("two collisions flagged as persistent conflict: %v", err)
	}
}

// A node silent past the guard window while claiming sync is desynced,
// and the watchdog must heal it with exponentially backed-off retries.
func TestDetectsDesyncAndHealsWithBackoff(t *testing.T) {
	var healed []int64
	m := New(Config{
		Heal: func(id topology.NodeID, asn sim.ASN) { healed = append(healed, int64(asn)) },
	})
	st := []NodeState{joinedState(2, 1, 0)}
	m.Poll(0, st) // fresh: establishes everJoined
	// The node keeps claiming sync but stops decoding anything.
	for now := int64(DefaultPollSlots); now <= 100000; now += DefaultPollSlots {
		m.Poll(sim.ASN(now), st)
	}
	got := codesOf(m)
	if len(got) != 1 || got[0] != CodeDesync {
		t.Fatalf("want one desync violation, got %v", m.Violations())
	}
	// First heal on the poll after the guard expires (ASN 3500), then
	// +2000, +4000, +8000, +16000, +32000 and +33000 (capped).
	want := []int64{3500, 5500, 9500, 17500, 33500, 65500, 98500}
	if len(healed) != len(want) {
		t.Fatalf("heal ASNs = %v, want %v", healed, want)
	}
	for i := range want {
		if healed[i] != want[i] {
			t.Fatalf("heal ASNs = %v, want %v", healed, want)
		}
	}
	reps := m.Repairs()
	for i, r := range reps {
		if r.Attempt != i+1 || r.Trigger != CodeDesync || r.Node != 2 {
			t.Fatalf("repair %d wrong: %+v", i, r)
		}
	}
	if m.Report().Repairs != len(want) {
		t.Fatalf("report repairs = %d, want %d", m.Report().Repairs, len(want))
	}
}

// A previously joined node that loses its parents beyond the grace window
// is orphaned; rejoining resets the episode and the watchdog backoff.
func TestDetectsOrphanAndResetsOnRejoin(t *testing.T) {
	var healed int
	m := New(Config{Heal: func(topology.NodeID, sim.ASN) { healed++ }})
	// The node keeps hearing frames (no desync) but has no parent.
	poll := func(now int64, parent topology.NodeID) {
		m.Poll(sim.ASN(now), []NodeState{joinedState(2, parent, now)})
	}
	poll(0, 1)
	for now := int64(500); now <= 2500; now += 500 {
		poll(now, 0)
	}
	if len(m.Violations()) != 0 {
		t.Fatalf("orphan flagged inside grace window: %v", m.Violations())
	}
	// Orphaned since 500: flagged at 3000, healed at 3000, 5000 and 9000;
	// the next attempt would wait until 17000.
	for now := int64(3000); now <= 9000; now += 500 {
		poll(now, 0)
	}
	got := codesOf(m)
	if len(got) != 1 || got[0] != CodeOrphan {
		t.Fatalf("want one orphan violation, got %v", m.Violations())
	}
	if healed != 3 {
		t.Fatalf("watchdog ran %d times, want 3", healed)
	}
	// Rejoined: episode closed; a later orphan episode starts from scratch,
	// its first heal at once rather than at the old episode's 17000.
	poll(9500, 1)
	for now := int64(10000); now <= 12500; now += 500 {
		poll(now, 0)
	}
	if len(m.Violations()) != 2 {
		t.Fatalf("second orphan episode not detected: %v", m.Violations())
	}
	if healed != 4 {
		t.Fatalf("watchdog backoff not reset on rejoin: %d heals", healed)
	}
}

// A dead radio is the fault injector's doing, not a protocol defect.
func TestDeadNodesExemptFromChecks(t *testing.T) {
	m := New(Config{})
	m.Poll(0, []NodeState{joinedState(2, 1, 0)})
	dead := []NodeState{{ID: 2, Alive: false}}
	for now := int64(DefaultPollSlots); now <= 20000; now += DefaultPollSlots {
		m.Poll(sim.ASN(now), dead)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("dead node flagged: %v", err)
	}
}

// The same sink delivering one packet twice means duplicate suppression
// failed; a second sink delivering it is route redundancy working.
func TestDetectsSameSinkDupDeliveryOnly(t *testing.T) {
	m := New(Config{})
	del := func(asn int64, node topology.NodeID, seq uint16) {
		m.Record(telemetry.Event{
			ASN: asn, Type: telemetry.EvDelivered, Node: node,
			Origin: 9, Flow: 1, Seq: seq,
		})
	}
	del(100, 1, 7)
	del(105, 2, 7) // second AP: fine
	del(110, 1, 8) // next packet: fine
	if len(m.Violations()) != 0 {
		t.Fatalf("legit deliveries flagged: %v", m.Violations())
	}
	del(120, 1, 7) // same sink, same packet again
	got := codesOf(m)
	if len(got) != 1 || got[0] != CodeDupDelivery {
		t.Fatalf("want one dup-delivery violation, got %v", m.Violations())
	}
}

// A flow generating without delivering for the starvation window is
// starved; one delivery resets the episode.
func TestDetectsFlowStarvation(t *testing.T) {
	m := New(Config{})
	gen := func(asn int64, seq uint16) {
		m.Record(telemetry.Event{
			ASN: asn, Type: telemetry.EvGenerated, Origin: 5, Flow: 2, Seq: seq,
		})
	}
	gen(0, 1)
	gen(3000, 2)
	m.Record(telemetry.Event{ASN: 3600, Type: telemetry.EvDelivered, Node: 1, Origin: 5, Flow: 2, Seq: 1})
	gen(7200, 3) // window restarts at 7200 after the delivery
	if len(m.Violations()) != 0 {
		t.Fatalf("delivering flow flagged: %v", m.Violations())
	}
	gen(10200, 4)
	gen(13800, 5) // 13800-7200 > DefaultStarveWindow with nothing delivered since
	got := codesOf(m)
	if len(got) != 1 || got[0] != CodeFlowStarved {
		t.Fatalf("want one flow-starved violation, got %v", m.Violations())
	}
	if v := m.Violations()[0]; v.Origin != 5 || v.Flow != 2 {
		t.Fatalf("starvation context wrong: %+v", v)
	}
}

// A head-of-line packet failing past the stuck threshold flags the queue.
func TestDetectsHeadOfLineStuckQueue(t *testing.T) {
	m := New(Config{})
	asn := int64(0)
	attempt := func(acked bool) {
		m.Record(telemetry.Event{
			ASN: asn, Type: telemetry.EvTxAttempt, Node: 3, Peer: 8,
			Kind: uint8(sim.KindData), Acked: acked,
		})
		asn += 151
	}
	for i := 0; i < DefaultStuckTxLimit-1; i++ {
		attempt(false)
	}
	// An ack resets the streak.
	attempt(true)
	for i := 0; i < DefaultStuckTxLimit-1; i++ {
		attempt(false)
	}
	if len(m.Violations()) != 0 {
		t.Fatalf("streak below the stuck limit flagged: %v", m.Violations())
	}
	attempt(false)
	got := codesOf(m)
	if len(got) != 1 || got[0] != CodeQueueStuck {
		t.Fatalf("want one queue-stuck violation, got %v", m.Violations())
	}
	if v := m.Violations()[0]; v.Node != 3 || v.Peer != 8 {
		t.Fatalf("stuck context wrong: %+v", v)
	}
}

// A queue pinned at the high-water mark past the grace window is growing
// without bound.
func TestDetectsSustainedHighQueue(t *testing.T) {
	m := New(Config{})
	st := joinedState(2, 1, 0)
	poll := func(now int64, queue int) {
		st.Queue, st.LastRx = queue, sim.ASN(now)
		m.Poll(sim.ASN(now), []NodeState{st})
	}
	for now := int64(0); now <= DefaultQueueGrace; now += DefaultPollSlots {
		poll(now, DefaultQueueHighWater+2)
	}
	if len(m.Violations()) != 0 {
		t.Fatalf("high queue flagged inside grace: %v", m.Violations())
	}
	poll(DefaultQueueGrace+DefaultPollSlots, DefaultQueueHighWater+2)
	got := codesOf(m)
	if len(got) != 1 || got[0] != CodeQueueStuck {
		t.Fatalf("want one queue violation, got %v", m.Violations())
	}
	// Draining clears the episode.
	poll(4000, 2)
	poll(4500, DefaultQueueHighWater+2)
	if len(m.Violations()) != 1 {
		t.Fatalf("drained queue did not re-arm: %v", m.Violations())
	}
}

// Violations must go out as schema events with the code attached, and a
// replayed trace's violation/repair events must be counted separately.
func TestEmitsTelemetryAndCountsReplayedEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONL(&buf)
	m := New(Config{Emit: sink})
	m.Poll(0, []NodeState{joinedState(2, 1, 0)})
	orphan := NodeState{ID: 2, Alive: true, Synced: false}
	m.Poll(500, []NodeState{orphan})
	m.Poll(3000, []NodeState{orphan}) // unjoined for 2500 > DefaultOrphanGrace
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ev":"violation"`) {
		t.Fatalf("no violation event emitted:\n%s", buf.String())
	}
	var seen []telemetry.Event
	if err := telemetry.Scan(bytes.NewReader(buf.Bytes()), func(ev telemetry.Event) error {
		seen = append(seen, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Code != uint8(CodeOrphan) || seen[0].Node != 2 {
		t.Fatalf("emitted events wrong: %+v", seen)
	}

	// Replay: feed the emitted events back through a fresh monitor.
	replay := New(Config{})
	for _, ev := range seen {
		replay.Record(ev)
	}
	rep := replay.Report()
	if rep.RecordedViolations != 1 || rep.Total != 0 {
		t.Fatalf("replay counts wrong: %+v", rep)
	}
	if rep.Err() == nil {
		t.Fatal("strict mode ignored replayed violations")
	}
}

// Report must aggregate per code with worst-first offenders and a stable
// strict-mode error.
func TestReportAggregation(t *testing.T) {
	m := New(Config{})
	m.violations = []Violation{
		{Code: CodeOrphan, ASN: 900, Node: 5},
		{Code: CodeOrphan, ASN: 400, Node: 7},
		{Code: CodeOrphan, ASN: 700, Node: 7},
		{Code: CodeFlowStarved, ASN: 1200, Origin: 9, Flow: 3},
	}
	rep := m.Report()
	if rep.Total != 4 || len(rep.ByCode) != 2 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	orphans := rep.ByCode[0]
	if orphans.Code != CodeOrphan || orphans.Count != 3 || orphans.FirstASN != 400 {
		t.Fatalf("orphan stats wrong: %+v", orphans)
	}
	if len(orphans.Offenders) != 2 || orphans.Offenders[0] != (Offender{Node: 7, Count: 2}) {
		t.Fatalf("offenders not worst-first: %+v", orphans.Offenders)
	}
	if rep.ByCode[1].Offenders[0].Node != 9 {
		t.Fatalf("flow violation not attributed to origin: %+v", rep.ByCode[1])
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "orphan=3") {
		t.Fatalf("strict error unhelpful: %v", err)
	}
}

// Attach must poll on the simulator's event queue every DefaultPollSlots.
func TestAttachPollsPeriodically(t *testing.T) {
	nw := sim.NewNetwork(topology.HalfTestbedA(), 1)
	m := New(Config{})
	var polls []int64
	probe := func(states []NodeState) []NodeState {
		polls = append(polls, int64(nw.ASN()))
		return append(states, joinedState(2, 1, int64(nw.ASN())))
	}
	Attach(nw, m, probe)
	nw.Run(4 * DefaultPollSlots)
	want := []int64{DefaultPollSlots, 2 * DefaultPollSlots, 3 * DefaultPollSlots}
	if len(polls) != len(want) {
		t.Fatalf("polls at %v, want %v", polls, want)
	}
	for i := range want {
		if polls[i] != want[i] {
			t.Fatalf("polls at %v, want %v", polls, want)
		}
	}
	if err := m.Err(); err != nil {
		t.Fatalf("healthy probed node flagged: %v", err)
	}
}
