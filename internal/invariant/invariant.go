// Package invariant is the runtime safety monitor: it turns the paper's
// correctness claims — loop-free uplink routing with redundant parents,
// effectively conflict-free autonomous schedules, bounded queues and live
// flows — into invariants checked online, while a scenario runs, instead
// of offline test assertions.
//
// The Monitor rides the packet-lifecycle telemetry chain (chain it with
// telemetry.Multi, exactly like chaos.Recovery) for the event-driven
// invariants, and takes periodic network-state snapshots through a Prober
// for the structural ones. Each violation is emitted as a schema-v3
// telemetry event (EvViolation) carrying enough context to localize it,
// and aggregated into a Report of counts, first-seen slots and worst
// offenders.
//
// On top of detection sits the self-healing half: a node flagged with
// sustained desync or orphaned routing state triggers the Heal hook —
// wired by callers to mac.Node.Reboot, which resyncs/rejoins through the
// protocol's Resetter while preserving callbacks — rate-limited by
// exponential backoff so a partitioned node does not thrash. Healing
// lives on the simulator's event queue, so campaigns stay bit-identical
// at any worker count.
package invariant

import (
	"fmt"
	"sort"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Code identifies one monitored invariant. The raw value travels in the
// telemetry schema's "code" field.
type Code uint8

// The invariant catalog (see DESIGN.md §11).
const (
	// CodeRoutingLoop: following best-parent pointers from some node
	// returns to it — uplink frames would cycle until duplicate
	// suppression or retry budgets eat them.
	CodeRoutingLoop Code = iota + 1
	// CodeOrphan: a previously joined, alive node has lost time sync or
	// every parent and stayed that way beyond the grace window.
	CodeOrphan
	// CodeSingleParent is reserved: no monitor emits it. It holds its
	// place so the telemetry "code" numbering stays fixed and traces that
	// carry it still decode.
	CodeSingleParent
	// CodeDesync: a node that believes it is synchronised has not decoded
	// a single frame for longer than the guard window — its clock has
	// drifted outside the guard time and its slots no longer line up.
	CodeDesync
	// CodeScheduleConflict: two distinct nodes transmitted data in the
	// same slot on the same physical channel, repeatedly, in the same
	// schedule cell — a persistent double-booking, not a chance collision.
	CodeScheduleConflict
	// CodeQueueStuck: a head-of-line packet kept failing past the stuck
	// threshold, or the data queue sat near capacity without draining —
	// the queue is stuck or growing without bound.
	CodeQueueStuck
	// CodeDupDelivery: the same application packet was delivered twice by
	// the same sink node — per-node duplicate suppression failed.
	CodeDupDelivery
	// CodeFlowStarved: a source kept generating packets but the flow
	// delivered nothing for the starvation window — silent starvation a
	// plain PDR number averages away.
	CodeFlowStarved
)

var codeNames = [...]string{
	CodeRoutingLoop:      "routing-loop",
	CodeOrphan:           "orphan",
	CodeSingleParent:     "single-parent",
	CodeDesync:           "desync",
	CodeScheduleConflict: "schedule-conflict",
	CodeQueueStuck:       "queue-stuck",
	CodeDupDelivery:      "dup-delivery",
	CodeFlowStarved:      "flow-starved",
}

// NumCodes bounds the valid Code values (codes are 1..NumCodes-1).
const NumCodes = len(codeNames)

// String returns the catalog name of the code.
func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return fmt.Sprintf("code-%d", uint8(c))
}

// MarshalText encodes the code by its catalog name, so JSON reports read
// "routing-loop" instead of a bare number.
func (c Code) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Violation is one detected invariation violation with its context.
type Violation struct {
	Code Code
	// ASN is the slot the violation was detected in.
	ASN int64
	// Node is the primary offender; Peer a counterparty where one exists
	// (the next hop closing a loop, the second conflicting transmitter,
	// the dead next-hop of a stuck queue).
	Node, Peer topology.NodeID
	// Origin and Flow localize flow-scoped violations.
	Origin topology.NodeID
	Flow   uint16
	// Channel and ChOff name the conflicting cell for schedule conflicts.
	Channel uint8
	ChOff   uint8
}

// Repair is one watchdog recovery action.
type Repair struct {
	// ASN is when the node was healed; Attempt the 1-based attempt number
	// within the episode (backoff doubles between attempts).
	ASN     int64
	Node    topology.NodeID
	Attempt int
	// Trigger is the invariant that flagged the node.
	Trigger Code
}

// NodeState is one node's probed routing/MAC state, the input to the
// structural checks. Probers fill one per node, in ascending ID order.
type NodeState struct {
	ID   topology.NodeID
	IsAP bool
	// Alive is false while the chaos engine (or a scenario) holds the
	// node's radio failed; dead nodes are exempt from every check.
	Alive bool
	// Synced is the MAC's own belief — CodeDesync exists precisely
	// because this flag can be stale.
	Synced bool
	// Parent is the current uplink parent (0 = none).
	Parent topology.NodeID
	// Queue is the data-queue depth; LastRx the last slot the node
	// decoded any frame; Neighbors the routing neighbor-table size.
	Queue     int
	LastRx    sim.ASN
	Neighbors int
}

// Prober appends every node's current state to states and returns the
// extended slice. Implementations must append in ascending node-ID order
// and consume no randomness — probing must not perturb a seeded run.
type Prober func(states []NodeState) []NodeState

// Offender is one node's violation count within a code.
type Offender struct {
	Node  topology.NodeID
	Count int
}

// CodeStats aggregates one invariant's violations.
type CodeStats struct {
	Code     Code
	Count    int
	FirstASN int64
	// Offenders lists the nodes involved, worst first (violations with no
	// node context, e.g. flow-scoped ones, attribute to the flow origin).
	Offenders []Offender
}

// Report is the aggregated outcome of a monitored run.
type Report struct {
	// Total counts violations the monitor itself detected; Repairs the
	// watchdog recoveries it triggered.
	Total   int
	Repairs int
	// RecordedViolations/RecordedRepairs count violation/repair events
	// that were already present in a replayed trace (zero in live runs:
	// the monitor never sees its own emissions).
	RecordedViolations int
	RecordedRepairs    int
	// ByCode holds per-invariant stats in catalog order, only for codes
	// that fired.
	ByCode []CodeStats
}

// Err returns nil for a clean report and an error summarizing the
// violation counts otherwise — the strict mode tests use.
func (r Report) Err() error {
	if r.Total == 0 && r.RecordedViolations == 0 {
		return nil
	}
	s := fmt.Sprintf("%d invariant violation(s)", r.Total+r.RecordedViolations)
	for _, cs := range r.ByCode {
		s += fmt.Sprintf(", %s=%d", cs.Code, cs.Count)
	}
	return fmt.Errorf("%s", s)
}

// ReportFrom builds a Report straight from violation and repair lists —
// the replay path (digs-doctor) reconstructs both from a trace's
// EvViolation/EvRepair events and aggregates them exactly like a live
// monitor would.
func ReportFrom(violations []Violation, repairs []Repair) Report {
	return buildReport(violations, repairs, 0, 0)
}

// buildReport folds the violation list into the per-code aggregate.
func buildReport(violations []Violation, repairs []Repair, recViol, recRep int) Report {
	rep := Report{
		Total:              len(violations),
		Repairs:            len(repairs),
		RecordedViolations: recViol,
		RecordedRepairs:    recRep,
	}
	type agg struct {
		count    int
		firstASN int64
		byNode   map[topology.NodeID]int
	}
	codes := make(map[Code]*agg)
	for _, v := range violations {
		a := codes[v.Code]
		if a == nil {
			a = &agg{firstASN: v.ASN, byNode: make(map[topology.NodeID]int)}
			codes[v.Code] = a
		}
		a.count++
		if v.ASN < a.firstASN {
			a.firstASN = v.ASN
		}
		offender := v.Node
		if offender == 0 {
			offender = v.Origin
		}
		a.byNode[offender]++
	}
	for c := Code(1); int(c) < NumCodes; c++ {
		a := codes[c]
		if a == nil {
			continue
		}
		cs := CodeStats{Code: c, Count: a.count, FirstASN: a.firstASN}
		for n, k := range a.byNode {
			cs.Offenders = append(cs.Offenders, Offender{Node: n, Count: k})
		}
		sort.Slice(cs.Offenders, func(i, j int) bool {
			if cs.Offenders[i].Count != cs.Offenders[j].Count {
				return cs.Offenders[i].Count > cs.Offenders[j].Count
			}
			return cs.Offenders[i].Node < cs.Offenders[j].Node
		})
		rep.ByCode = append(rep.ByCode, cs)
	}
	return rep
}
