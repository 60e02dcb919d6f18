// Package telemetry is the packet-lifecycle tracing subsystem: a
// structured event stream that follows every application packet from
// generation through each enqueue, transmission attempt and reception to
// its delivery or typed drop, as spans keyed by (origin, flow, seq, hop).
//
// Recording goes through the Tracer interface so sinks are pluggable: a
// JSONL exporter with a versioned schema (JSONL) and an aggregating sink
// that folds the stream into per-hop loss attribution, per-cell
// utilization and queue-depth histograms (Aggregate). The cmd/digs-trace CLI replays an exported JSONL stream
// through the same Aggregate. A Backlog keeps a bounded run of events in
// their packed form (Event.CodePacked) for replay as JSONL lines, as the
// simulation server does for each job.
//
// The disabled path is a nil check: instrumented code guards every
// Record call with `if tracer != nil`, events are plain value structs
// built on the caller's stack, and no hook point allocates — the
// engine's zero-allocation slot loop stays zero-alloc with tracing off.
package telemetry

import "github.com/digs-net/digs/internal/topology"

// SchemaName and SchemaVersion identify the JSONL export format. Bump the
// version on any field change; readers refuse streams they do not know.
const (
	SchemaName    = "digs-trace"
	SchemaVersion = 3
)

// EventType classifies a lifecycle event.
type EventType uint8

// Lifecycle event types, in the order a packet experiences them.
const (
	// EvGenerated marks an application packet created at its origin.
	EvGenerated EventType = iota + 1
	// EvEnqueued marks a packet entering a node's forwarding queue
	// (locally generated or accepted from a neighbour for forwarding).
	EvEnqueued
	// EvTxAttempt marks one finished transmission attempt, with its ACK
	// outcome, physical channel and schedule-cell coordinates.
	EvTxAttempt
	// EvReceived marks a data frame decoded at a node, with its RSS.
	EvReceived
	// EvDelivered marks a data packet accepted at an access-point sink.
	EvDelivered
	// EvDropped marks a packet leaving the network without delivery;
	// Reason says why.
	EvDropped
	// EvCollision marks a listener detecting undecodable energy (emitted
	// by the engine adapter, see AttachSim).
	EvCollision
	// EvRouteChange marks a routing adjacency change: Peer is the new
	// best parent, Peer2 the new backup where the protocol keeps one.
	// Only sdn reports a lost parent (Peer 0); DiGS and the RPL family
	// record no event when a node loses every parent.
	EvRouteChange
	// EvFaultStart marks a chaos-plan fault becoming active: Flow is the
	// plan entry index, Seq the occurrence number for periodic faults,
	// Node the first target (0 for region-wide faults).
	EvFaultStart
	// EvFaultEnd marks a chaos-plan fault window closing (faults with no
	// end emit only EvFaultStart).
	EvFaultEnd
	// EvReconverged marks the routing layer settling after a fault: all
	// live nodes are routed again and no route change happened for the
	// injector's quiet window. Flow/Seq name the fault it answers.
	EvReconverged
	// EvViolation marks a runtime safety-invariant violation detected by
	// the invariant monitor. Code identifies the invariant (see
	// internal/invariant), Node the primary offender, Peer a counterparty
	// where one exists (the next hop closing a routing loop, the second
	// transmitter of a schedule conflict), and Flow/Origin localize
	// flow-scoped violations. Channel/ChOff name the conflicting cell for
	// schedule conflicts.
	EvViolation
	// EvRepair marks a watchdog-triggered degraded-mode recovery action:
	// Node was resynced/rejoined because of a sustained violation. Code
	// carries the triggering invariant and Attempt the 1-based recovery
	// attempt number (backoff doubles between attempts).
	EvRepair
)

var eventNames = [...]string{
	EvGenerated:   "gen",
	EvEnqueued:    "enq",
	EvTxAttempt:   "tx",
	EvReceived:    "rx",
	EvDelivered:   "dlv",
	EvDropped:     "drop",
	EvCollision:   "col",
	EvRouteChange: "route",
	EvFaultStart:  "fault_start",
	EvFaultEnd:    "fault_end",
	EvReconverged: "reconverged",
	EvViolation:   "violation",
	EvRepair:      "repair",
}

// String returns the compact wire name of the event type.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return "unknown"
}

// EventTypeFromString inverts String; it returns 0 for unknown names.
func EventTypeFromString(s string) EventType {
	for t, name := range eventNames {
		if name == s {
			return EventType(t)
		}
	}
	return 0
}

// DropReason types the causes a packet can leave the network for.
type DropReason uint8

// Drop reasons.
const (
	// ReasonNone is the zero value (not a drop).
	ReasonNone DropReason = iota
	// ReasonQueueFull: the bounded forwarding queue had no room.
	ReasonQueueFull
	// ReasonMaxRetries: the retransmission budget ran out.
	ReasonMaxRetries
	// ReasonSplitHorizon: the only available next hop was the packet's
	// upstream sender for too many transmit opportunities.
	ReasonSplitHorizon
	// ReasonDuplicate: duplicate suppression rejected a copy already
	// seen (redundant-route or retransmission duplicate).
	ReasonDuplicate
	// ReasonEvicted: a full queue evicted this (oldest) packet to admit a
	// newer one. The JSONL schema keeps the reason, but the MAC drops the
	// arrival instead (ReasonQueueFull), so no hook in this tree emits it.
	ReasonEvicted
)

var reasonNames = [...]string{
	ReasonNone:         "",
	ReasonQueueFull:    "queue-full",
	ReasonMaxRetries:   "max-retries",
	ReasonSplitHorizon: "split-horizon",
	ReasonDuplicate:    "duplicate",
	ReasonEvicted:      "queue-evict",
}

// String returns the wire name of the drop reason ("" for none).
func (r DropReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// DropReasonFromString inverts String.
func DropReasonFromString(s string) DropReason {
	for r, name := range reasonNames {
		if name == s && s != "" {
			return DropReason(r)
		}
	}
	return ReasonNone
}

// Event is one packet-lifecycle observation. It is a plain value struct:
// hook points build it on the stack and hand it to Tracer.Record, so the
// disabled path costs one nil check and the enabled path does not force a
// heap allocation per event.
type Event struct {
	// ASN is the absolute slot number the event happened in.
	ASN  int64
	Type EventType
	// Node is where the event happened.
	Node topology.NodeID
	// Peer is the counterparty: tx destination, rx source, or the new
	// best parent for route events.
	Peer topology.NodeID
	// Peer2 is the new backup parent for route events (0 when none).
	Peer2 topology.NodeID

	// Origin, Flow and Seq identify the application packet end to end;
	// with Job they key the packet's span across a merged trace.
	Origin topology.NodeID
	Flow   uint16
	Seq    uint16

	// Kind is the frame kind (sim.FrameKind) for tx/rx/drop events.
	Kind uint8
	// Hop counts the links the packet has crossed when received or
	// enqueued (1 = arrived over its first link).
	Hop uint8
	// Attempt numbers the transmission attempt for one packet, 1-based.
	Attempt uint16
	// Channel is the physical channel of a tx/collision event; ChOff is
	// the schedule's channel offset (hopping lane), which together with
	// ASN modulo the slotframe length names the schedule cell.
	Channel uint8
	ChOff   uint8
	// Acked reports the ACK outcome of a tx attempt.
	Acked bool
	// RSS is the received signal strength of an rx event, dBm.
	RSS float64
	// Queue is the node's data-queue depth after the event.
	Queue int16
	// Reason types drop events.
	Reason DropReason
	// Code identifies the violated invariant for violation events and the
	// triggering invariant for repair events (an invariant.Code value; the
	// schema stores the raw number so telemetry stays layering-clean).
	Code uint8
	// Job is the campaign job index the event belongs to in a merged
	// multi-run trace (see WithJob and MergeJSONL).
	Job int32
	// Born is the packet's generation slot, for latency accounting.
	Born int64
}

// Tracer records lifecycle events. Implementations must be cheap: Record
// runs inline in the simulator's slot loop. Code holding a Tracer treats
// nil as "tracing disabled" and must nil-check before calling.
type Tracer interface {
	// Record observes one event.
	Record(ev Event)
	// Flush forces buffered state out (e.g. to the underlying writer)
	// and reports the first error the sink encountered.
	Flush() error
}

// multi fans events out to several sinks.
type multi struct{ sinks []Tracer }

// Multi returns a Tracer that forwards every event to all given sinks
// (nil sinks are skipped). A single non-nil sink is returned unwrapped.
func Multi(sinks ...Tracer) Tracer {
	var live []Tracer
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multi{sinks: live}
}

func (m *multi) Record(ev Event) {
	for _, s := range m.sinks {
		s.Record(ev)
	}
}

func (m *multi) Flush() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// jobTracer stamps every event with a campaign job index.
type jobTracer struct {
	next Tracer
	job  int32
}

// WithJob wraps a tracer so every recorded event carries the given
// campaign job index. Parallel campaigns give each job its own sink
// wrapped with its index, so merged traces keep runs distinguishable
// (identical flow/seq pairs recur across independent repetitions).
func WithJob(t Tracer, job int) Tracer {
	if t == nil {
		return nil
	}
	return &jobTracer{next: t, job: int32(job)}
}

func (j *jobTracer) Record(ev Event) {
	ev.Job = j.job
	j.next.Record(ev)
}

func (j *jobTracer) Flush() error { return j.next.Flush() }
