package invariant

import (
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// Default thresholds, in slots (10 ms each) unless noted. They are tuned
// so a healthy DiGS network reports zero violations in steady state: the
// structural graces sit well above EB periods and parent-reselection
// times, the conflict check demands persistence (chance collisions in
// shared slots never repeat in the same cell) and the stuck threshold
// sits below the MAC retry budget but above any lossy-link streak a
// usable route produces.
const (
	// DefaultPollSlots is the probe period (5 s).
	DefaultPollSlots = 500
	// DefaultFrameLen folds conflict cells over the application slotframe.
	DefaultFrameLen = 151
	// DefaultDesyncGuard: a synced node silent for 30 s (five EB periods)
	// has drifted out of the guard time.
	DefaultDesyncGuard = 3000
	// DefaultOrphanGrace: a previously joined node may be parentless or
	// unsynced for 20 s before it counts orphaned.
	DefaultOrphanGrace = 2000
	// DefaultStarveWindow: a generating flow delivering nothing for 60 s
	// is starved.
	DefaultStarveWindow = 6000
	// DefaultStuckTxLimit is the consecutive un-acked data-attempt streak
	// that flags a head-of-line-stuck queue (below the 30-attempt retry
	// budget, far above any streak a usable link produces).
	DefaultStuckTxLimit = 25
	// DefaultQueueHighWater / DefaultQueueGrace: a queue at or above the
	// high-water depth for 30 s without draining is growing unboundedly.
	DefaultQueueHighWater = 12
	DefaultQueueGrace     = 3000
	// DefaultConflictMinSlots: a cell must double-book in this many
	// distinct slots before it counts as a schedule conflict.
	DefaultConflictMinSlots = 3
	// DefaultLoopConfirmPolls: a parent cycle must survive this many
	// consecutive probes (reselection makes single-poll loops transient).
	DefaultLoopConfirmPolls = 2
	// DefaultHealBackoff is the first watchdog retry delay (20 s); it
	// doubles per attempt up to DefaultHealBackoffCap (~5.5 min).
	DefaultHealBackoff    = 2000
	DefaultHealBackoffCap = 33000
)

// Config wires the Monitor into a run. The thresholds are the Default*
// constants; the zero Config is a working detection-only monitor.
type Config struct {
	// Emit, when set, receives one EvViolation event per detected
	// violation and one EvRepair per watchdog action. Chain the monitor
	// AFTER this sink (the monitor must not observe its own emissions).
	Emit telemetry.Tracer
	// FrameLen folds schedule-conflict cells ((ASN mod FrameLen, channel));
	// zero selects DefaultFrameLen.
	FrameLen int64
	// Heal, when set, arms the watchdog: a node with a sustained orphan
	// or desync violation is handed to Heal (callers wire
	// mac.Node.Reboot(asn, true) — resync/rejoin through the protocol's
	// Resetter, callbacks preserved). Attempts back off exponentially
	// from DefaultHealBackoff to DefaultHealBackoffCap per episode.
	Heal func(id topology.NodeID, asn sim.ASN)
}

// nodeTrack is the monitor's per-node episode state. Condition trackers
// follow one pattern: a *Since slot records when the condition was first
// observed (-1 = not active), a flagged bit makes each episode emit one
// violation, and clearing the condition re-arms the tracker.
type nodeTrack struct {
	everJoined bool

	orphanSince  int64
	orphanFlag   bool
	desyncFlag   bool
	qhighSince   int64
	qhighFlag    bool
	loopPolls    int
	loopFlag     bool
	consecFails  int
	consecPeer   topology.NodeID
	stuckFlag    bool
	healAttempts int
	healNextASN  int64
}

func newNodeTrack() *nodeTrack {
	return &nodeTrack{orphanSince: -1, qhighSince: -1}
}

// resetStructural re-arms every probe-driven tracker (used when a node
// dies or recovers — the next episode starts fresh).
func (t *nodeTrack) resetStructural() {
	t.orphanSince, t.orphanFlag = -1, false
	t.desyncFlag = false
	t.qhighSince, t.qhighFlag = -1, false
	t.loopPolls, t.loopFlag = 0, false
	t.healAttempts, t.healNextASN = 0, 0
}

type spanKey struct {
	job    int32
	origin topology.NodeID
	flow   uint16
	seq    uint16
}

type flowKey struct {
	job    int32
	origin topology.NodeID
	flow   uint16
}

type flowTrack struct {
	// firstUndelivered is the slot of the first generation since the last
	// delivery; pending counts generations since then (0 = the flow is
	// currently delivering and firstUndelivered is stale).
	firstUndelivered int64
	pending          int
	flagged          bool
}

type cellKey struct {
	offset  int64
	channel uint8
}

type cellTrack struct {
	slots   int
	lastASN int64
	flagged bool
}

type txRec struct {
	node  topology.NodeID
	peer  topology.NodeID
	ch    uint8
	choff uint8
}

// Monitor is the online invariant checker. It implements telemetry.Tracer
// for the event-driven invariants; Poll (usually scheduled through
// Attach) runs the structural ones. It is not safe for concurrent use —
// like every sink, parallel campaign jobs each get their own.
type Monitor struct {
	cfg Config

	nodes map[topology.NodeID]*nodeTrack
	// deliveredBy records which sinks delivered each span, to catch a
	// node delivering the same packet twice (cross-sink duplicates are
	// route redundancy working, not a violation).
	deliveredBy map[spanKey]map[topology.NodeID]struct{}
	flows       map[flowKey]*flowTrack
	cells       map[cellKey]*cellTrack

	// slotTx batches the current slot's data transmissions; when the
	// stream's ASN advances the finished slot is checked for conflicts.
	slotASN int64
	slotTx  []txRec

	violations []Violation
	repairs    []Repair
	recViol    int
	recRep     int

	// scratch backs Attach's periodic probe snapshots.
	scratch []NodeState
}

var _ telemetry.Tracer = (*Monitor)(nil)

// New returns a Monitor.
func New(cfg Config) *Monitor {
	if cfg.FrameLen <= 0 {
		cfg.FrameLen = DefaultFrameLen
	}
	return &Monitor{
		cfg:         cfg,
		nodes:       make(map[topology.NodeID]*nodeTrack),
		deliveredBy: make(map[spanKey]map[topology.NodeID]struct{}),
		flows:       make(map[flowKey]*flowTrack),
		cells:       make(map[cellKey]*cellTrack),
		slotASN:     -1,
	}
}

func (m *Monitor) track(id topology.NodeID) *nodeTrack {
	t := m.nodes[id]
	if t == nil {
		t = newNodeTrack()
		m.nodes[id] = t
	}
	return t
}

// violate records one violation and emits its telemetry event.
func (m *Monitor) violate(v Violation) {
	m.violations = append(m.violations, v)
	if m.cfg.Emit != nil {
		m.cfg.Emit.Record(telemetry.Event{
			ASN: v.ASN, Type: telemetry.EvViolation,
			Node: v.Node, Peer: v.Peer, Origin: v.Origin, Flow: v.Flow,
			Channel: v.Channel, ChOff: v.ChOff, Code: uint8(v.Code),
		})
	}
}

// Record implements telemetry.Tracer: the event-driven invariants.
func (m *Monitor) Record(ev telemetry.Event) {
	if ev.ASN != m.slotASN {
		m.checkSlotConflicts()
		m.slotASN = ev.ASN
	}
	switch ev.Type {
	case telemetry.EvTxAttempt:
		if ev.Kind != uint8(sim.KindData) {
			return
		}
		m.slotTx = append(m.slotTx, txRec{node: ev.Node, peer: ev.Peer, ch: ev.Channel, choff: ev.ChOff})
		t := m.track(ev.Node)
		if ev.Acked {
			t.consecFails, t.stuckFlag = 0, false
			return
		}
		t.consecFails++
		t.consecPeer = ev.Peer
		if t.consecFails >= DefaultStuckTxLimit && !t.stuckFlag {
			t.stuckFlag = true
			m.violate(Violation{
				Code: CodeQueueStuck, ASN: ev.ASN, Node: ev.Node, Peer: ev.Peer,
			})
		}
	case telemetry.EvGenerated:
		fk := flowKey{job: ev.Job, origin: ev.Origin, flow: ev.Flow}
		ft := m.flows[fk]
		if ft == nil {
			ft = &flowTrack{}
			m.flows[fk] = ft
		}
		if ft.pending == 0 {
			ft.firstUndelivered = ev.ASN
		}
		ft.pending++
		if !ft.flagged && ft.pending >= 2 && ev.ASN-ft.firstUndelivered > DefaultStarveWindow {
			ft.flagged = true
			m.violate(Violation{
				Code: CodeFlowStarved, ASN: ev.ASN,
				Origin: ev.Origin, Flow: ev.Flow,
			})
		}
	case telemetry.EvDelivered:
		fk := flowKey{job: ev.Job, origin: ev.Origin, flow: ev.Flow}
		if ft := m.flows[fk]; ft != nil {
			ft.firstUndelivered, ft.pending, ft.flagged = 0, 0, false
		}
		sk := spanKey{job: ev.Job, origin: ev.Origin, flow: ev.Flow, seq: ev.Seq}
		sinks := m.deliveredBy[sk]
		if sinks == nil {
			sinks = make(map[topology.NodeID]struct{}, 1)
			m.deliveredBy[sk] = sinks
		}
		if _, dup := sinks[ev.Node]; dup {
			m.violate(Violation{
				Code: CodeDupDelivery, ASN: ev.ASN, Node: ev.Node,
				Origin: ev.Origin, Flow: ev.Flow,
			})
			return
		}
		sinks[ev.Node] = struct{}{}
	case telemetry.EvViolation:
		m.recViol++
	case telemetry.EvRepair:
		m.recRep++
	}
}

// checkSlotConflicts closes the batched slot: two distinct data
// transmitters on the same physical channel in the same slot interfere;
// the same cell (slot offset, channel) double-booking in
// DefaultConflictMinSlots distinct slots is a persistent schedule conflict.
func (m *Monitor) checkSlotConflicts() {
	if len(m.slotTx) > 1 {
		for i := 0; i < len(m.slotTx); i++ {
			for j := i + 1; j < len(m.slotTx); j++ {
				a, b := m.slotTx[i], m.slotTx[j]
				if a.ch != b.ch || a.node == b.node {
					continue
				}
				// A transmitter and its own receiver-to-be never conflict;
				// distinct senders to anyone on one channel do.
				k := cellKey{offset: m.slotASN % m.cfg.FrameLen, channel: a.ch}
				c := m.cells[k]
				if c == nil {
					c = &cellTrack{lastASN: -1}
					m.cells[k] = c
				}
				if c.lastASN == m.slotASN {
					continue // one double-booking per slot per cell
				}
				c.lastASN = m.slotASN
				c.slots++
				if c.slots >= DefaultConflictMinSlots && !c.flagged {
					c.flagged = true
					m.violate(Violation{
						Code: CodeScheduleConflict, ASN: m.slotASN,
						Node: a.node, Peer: b.node, Channel: a.ch, ChOff: a.choff,
					})
				}
			}
		}
	}
	m.slotTx = m.slotTx[:0]
}

// Flush implements telemetry.Tracer.
func (m *Monitor) Flush() error { return nil }

// Poll runs the structural checks against one probed snapshot and drives
// the watchdog. Attach schedules it on the simulator's event queue;
// offline replays may call it directly.
func (m *Monitor) Poll(asn sim.ASN, states []NodeState) {
	now := int64(asn)
	for i := range states {
		st := &states[i]
		t := m.track(st.ID)
		if !st.Alive {
			// Dead radios are the chaos engine's business, not a protocol
			// defect; the next live episode starts fresh.
			t.resetStructural()
			continue
		}
		joined := st.Synced && (st.Parent != 0 || st.IsAP)
		if joined {
			t.everJoined = true
		}
		m.checkOrphan(now, st, t, joined)
		m.checkDesync(now, st, t)
		m.checkQueue(now, st, t)
		m.heal(now, st, t)
	}
	m.checkLoops(now, states)
}

func (m *Monitor) checkOrphan(now int64, st *NodeState, t *nodeTrack, joined bool) {
	if st.IsAP || !t.everJoined {
		return
	}
	if joined {
		t.orphanSince, t.orphanFlag = -1, false
		return
	}
	if t.orphanSince < 0 {
		t.orphanSince = now
	}
	if !t.orphanFlag && now-t.orphanSince > DefaultOrphanGrace {
		t.orphanFlag = true
		m.violate(Violation{Code: CodeOrphan, ASN: now, Node: st.ID})
	}
}

func (m *Monitor) checkDesync(now int64, st *NodeState, t *nodeTrack) {
	if st.IsAP || !st.Synced || !t.everJoined {
		t.desyncFlag = false
		return
	}
	if now-int64(st.LastRx) <= DefaultDesyncGuard {
		t.desyncFlag = false
		return
	}
	if !t.desyncFlag {
		t.desyncFlag = true
		m.violate(Violation{Code: CodeDesync, ASN: now, Node: st.ID})
	}
}

func (m *Monitor) checkQueue(now int64, st *NodeState, t *nodeTrack) {
	if st.Queue < DefaultQueueHighWater {
		t.qhighSince, t.qhighFlag = -1, false
		return
	}
	if t.qhighSince < 0 {
		t.qhighSince = now
	}
	if !t.qhighFlag && now-t.qhighSince > DefaultQueueGrace {
		t.qhighFlag = true
		m.violate(Violation{Code: CodeQueueStuck, ASN: now, Node: st.ID, Peer: t.consecPeer})
	}
}

// heal is the watchdog: a node sitting in a flagged orphan or desync
// episode is handed to the Heal hook, with exponentially backed-off
// retries so a node that cannot rejoin (jammed, partitioned) does not
// thrash through endless reboots.
func (m *Monitor) heal(now int64, st *NodeState, t *nodeTrack) {
	if !(t.orphanFlag || t.desyncFlag) {
		// Healthy again: the next episode backs off from scratch.
		t.healAttempts, t.healNextASN = 0, 0
		return
	}
	if m.cfg.Heal == nil || st.IsAP {
		return
	}
	if now < t.healNextASN {
		return
	}
	trigger := CodeOrphan
	if t.desyncFlag {
		trigger = CodeDesync
	}
	t.healAttempts++
	backoff := int64(DefaultHealBackoff) << (t.healAttempts - 1)
	if backoff > DefaultHealBackoffCap || backoff <= 0 {
		backoff = DefaultHealBackoffCap
	}
	t.healNextASN = now + backoff
	m.repairs = append(m.repairs, Repair{
		ASN: now, Node: st.ID, Attempt: t.healAttempts, Trigger: trigger,
	})
	if m.cfg.Emit != nil {
		m.cfg.Emit.Record(telemetry.Event{
			ASN: now, Type: telemetry.EvRepair, Node: st.ID,
			Attempt: uint16(t.healAttempts), Code: uint8(trigger),
		})
	}
	m.cfg.Heal(st.ID, sim.ASN(now))
}

// checkLoops walks best-parent pointers over the snapshot and flags every
// node on a cycle that survives DefaultLoopConfirmPolls consecutive probes.
func (m *Monitor) checkLoops(now int64, states []NodeState) {
	parent := make(map[topology.NodeID]topology.NodeID, len(states))
	for i := range states {
		st := &states[i]
		if st.Alive && !st.IsAP && st.Parent != 0 {
			parent[st.ID] = st.Parent
		}
	}
	// color: 0 unvisited, 1 on the current walk, 2 finished.
	color := make(map[topology.NodeID]uint8, len(parent))
	inCycle := make(map[topology.NodeID]bool)
	for i := range states {
		start := states[i].ID
		if color[start] != 0 {
			continue
		}
		var path []topology.NodeID
		cur := start
		for {
			if _, ok := parent[cur]; !ok || color[cur] == 2 {
				break
			}
			if color[cur] == 1 {
				// Found a cycle: everything from cur's first occurrence on.
				for k := len(path) - 1; k >= 0; k-- {
					inCycle[path[k]] = true
					if path[k] == cur {
						break
					}
				}
				break
			}
			color[cur] = 1
			path = append(path, cur)
			cur = parent[cur]
		}
		for _, id := range path {
			color[id] = 2
		}
	}
	for i := range states {
		st := &states[i]
		t := m.track(st.ID)
		if !inCycle[st.ID] {
			t.loopPolls, t.loopFlag = 0, false
			continue
		}
		t.loopPolls++
		if t.loopPolls >= DefaultLoopConfirmPolls && !t.loopFlag {
			t.loopFlag = true
			m.violate(Violation{Code: CodeRoutingLoop, ASN: now, Node: st.ID, Peer: st.Parent})
		}
	}
}

// Violations returns every violation detected so far, in detection order.
func (m *Monitor) Violations() []Violation { return m.violations }

// Repairs returns every watchdog action taken so far.
func (m *Monitor) Repairs() []Repair { return m.repairs }

// Report aggregates the run (callable any time; it folds from scratch).
// The final slot's conflict batch is closed first.
func (m *Monitor) Report() Report {
	m.checkSlotConflicts()
	return buildReport(m.violations, m.repairs, m.recViol, m.recRep)
}

// Err is strict mode: nil when the run is invariant-clean, an error
// naming the violated invariants otherwise.
func (m *Monitor) Err() error { return m.Report().Err() }

// Attach schedules the monitor's periodic probe on the network's event
// queue, every DefaultPollSlots starting one period from now. Polling
// consumes no randomness and lives on the same deterministic queue as the
// rest of the run.
func Attach(nw *sim.Network, m *Monitor, probe Prober) {
	if nw == nil || m == nil || probe == nil {
		return
	}
	var tick func()
	tick = func() {
		m.scratch = probe(m.scratch[:0])
		m.Poll(nw.ASN(), m.scratch)
		nw.At(nw.ASN()+DefaultPollSlots, tick)
	}
	nw.At(nw.ASN()+DefaultPollSlots, tick)
}
