package sim

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// One slot loop, two media. Network.Step is the only slot loop: one
// goroutine walks the awake set in ascending node ID through three phases —
// plan, resolve the medium, report — and lets devices that implement Napper
// nap through the stretches in which they would plan the same thing every
// slot: sleep, or one passive scan. The network keeps the set of devices
// that are awake and a wheel of the slots at which the others wake, so a
// slot costs its radio events — the awake devices' calls and the
// transmitters' rows — not a visit to every node, and Run fast-forwards the
// clock to the earliest wake or scheduled event when no device is awake.
// What differs between the two media is only how transmissions find their
// listeners, where the randomness comes from (resolve.go), and when engine
// trace events reach Trace.
//
// The dense medium (NewNetwork) is the paper-scale one: a flat (n+1)^2 RSS
// matrix, per-channel transmitter lists filled as devices plan, and one
// sequential generator. Every golden pins that generator's draw order, and
// the order is the order listeners resolve in. It emits its trace events
// inline, interleaved with the devices' own.
//
// The sparse medium (NewScaleNetwork) is the massive-topology one:
//
//  1. The RSS matrix is replaced by the topology's radius-pruned CSR
//     adjacency. Receptions are resolved by walking each transmitter's
//     neighbour row (O(degree)) instead of the global per-channel
//     transmitter lists, and the fade overlay is keyed on sparse link
//     indices.
//
//  2. All randomness is counter-based: each fading and decode draw is a
//     pure hash of (seed, asn, src, dst, salt) instead of the next value
//     of a shared sequential generator, so a draw's value does not depend
//     on the order listeners resolve in — the same trick the engine uses
//     for clock-drift decisions. Every sparse result, snapshot and trace
//     pinned in the tests is a function of these hashes.
//
//  3. Engine trace events are buffered for the length of a phase and
//     drained after it, so a phase's device events precede its engine
//     events; the sparse trace pins hold that order.

// Napper is optionally implemented by devices that can predict their own
// uneventful stretches. After EndSlot(asn) the engine asks NextWake(asn); a
// return w > asn+1 promises that in every slot of (asn, w) the device would
// plan exactly the returned op — OpSleep, or one OpScan (anything else is
// taken as sleep) — and that EndSlot with a report carrying nothing but that
// op's energy class would change nothing but its per-slot accounting. The
// engine then skips its Plan/EndSlot calls until slot w or Network.Wake. A
// sleeping device's radio is off. A standing scan stays in the medium like
// any listener: the engine resolves it every slot and rouses the device, in
// the slot itself, when a frame is delivered to it; detected energy it could
// not decode (a collision, an overheard unicast) only changes report fields
// a scan's EndSlot must not read — which is why the standing op cannot be an
// OpRx, whose energy class depends on what was detected. However the nap
// ends, AccrueNap(k, activity) first reports the k skipped slots so the
// device settles them exactly as k such EndSlot calls would have. The
// promise cuts both ways: a device woken before w (Network.Wake, a capture)
// plans the op it promised, with no other effect, and naps again.
type Napper interface {
	NextWake(asn ASN) (wake ASN, standing RadioOp)
	AccrueNap(slots int64, activity phy.SlotActivity)
}

// LoopStats counts the slot loop's own work since the network was built:
// what the loop costs the host, where the telemetry layer says what the
// network did. The counts are a pure function of the run.
type LoopStats struct {
	// Plan calls by the kind of op the device returned.
	PlanSleep, PlanTx, PlanRx, PlanScan int64
	// Rouses counts standing scanners returned to the awake set by a
	// delivered frame.
	Rouses int64
	// Rows counts the transmitter rows the sparse gather walked, Hearings
	// the detectable transmissions handed to the decide routine on either
	// medium.
	Rows, Hearings int64
	// FastForwarded counts the slots Run jumped over with no device awake.
	FastForwarded int64
}

// Plans is the total number of Plan calls.
func (s LoopStats) Plans() int64 { return s.PlanSleep + s.PlanTx + s.PlanRx + s.PlanScan }

func (s LoopStats) String() string {
	return fmt.Sprintf("%d plans (%d sleep, %d tx, %d rx, %d scan), %d rouses, %d rows walked, %d hearings, %d slots fast-forwarded",
		s.Plans(), s.PlanSleep, s.PlanTx, s.PlanRx, s.PlanScan, s.Rouses, s.Rows, s.Hearings, s.FastForwarded)
}

// LoopStats returns the slot loop's counters.
func (nw *Network) LoopStats() LoopStats { return nw.stats }

// scaleState is what only the sparse medium has.
type scaleState struct {
	sparse   *topology.SparseRSS
	seedHash uint64

	// busy accumulates the wall-clock time the slot loop spends in its
	// phases (ShardBusy).
	busy time.Duration

	// fade is the link attenuation overlay keyed by sparse link index
	// (directed entries, kept symmetric); nil until the first AddLinkFade.
	fade []float64

	// slotKey is the hash of (seed, slot) for the slot being resolved, the
	// prefix of every draw of the slot.
	slotKey uint64
	// reach is the per-link fading-draw cut-off, built for the fading sigma
	// reachSigma (fadeReach); nil until the first gather.
	reach      []float64
	reachSigma float64
}

// NewScaleNetwork creates a network on the sparse medium, over the
// topology's radius-pruned adjacency. The dense medium resolves in a
// different order under a different RNG discipline, so dense and sparse
// runs are each internally deterministic but not comparable to each other.
func NewScaleNetwork(topo *topology.Topology, seed int64) *Network {
	nw := newNetwork(topo, seed) // nw.rng stays nil: draws are counter-based
	nw.scale = &scaleState{
		sparse:   topo.SparseView(),
		seedHash: detrand.Mix(0, uint64(seed)),
	}
	nw.hear = make([][]candidate, nw.numDevs+1)
	nw.heard = make([]uint64, len(nw.awake))
	return nw
}

// ScaleMode reports whether this network runs on the sparse medium.
func (nw *Network) ScaleMode() bool { return nw.scale != nil }

// Wake cancels a napping device's remaining nap: it settles the skipped
// slots immediately and resumes Plan calls from the next Step. Layers
// that hand a device new work outside the radio path (flow injection,
// node restoration) must call it first, or the device would sleep through
// its own transmit slots.
func (nw *Network) Wake(id topology.NodeID) {
	if id < 1 || int(id) > nw.numDevs || nw.napUntil[id] == 0 {
		return
	}
	nw.accrueNap(id, nw.asn)
	nw.napUntil[id] = 0
	nw.trackAwake(id)
}

// SettleNaps brings the accounting of every napping device up to the
// current slot without waking any: a napping device's counters otherwise
// lag by the slots it has slept so far, so whoever reads per-device totals
// mid-run (an energy window's two ends) settles first. Accruing a nap in
// two parts adds the same per-slot terms in the same order as accruing it
// whole, so later totals keep their bits.
func (nw *Network) SettleNaps() {
	for id := 1; id <= nw.numDevs; id++ {
		if nw.napUntil[id] != 0 {
			since := nw.accrueNap(topology.NodeID(id), nw.asn)
			*since = nw.asn - 1
		}
	}
}

// accrueNap reports to a napping device the slots it has skipped before
// asn, in the energy class of the op it naps on, and returns where the last
// slot it is accounted for is kept (SettleNaps moves it; whoever ends the
// nap leaves it stale).
func (nw *Network) accrueNap(id topology.NodeID, asn ASN) *ASN {
	since, activity := &nw.napStart[id], phy.ActivitySleep
	if nw.ops[id].Kind == OpScan {
		activity = phy.ActivityScan
	}
	if skipped := asn - *since - 1; skipped > 0 && nw.nappers[id] != nil {
		nw.nappers[id].AccrueNap(skipped, activity)
	}
	return since
}

// endNap settles a napping device up to asn and returns it to the awake set
// (its nap is over, or a frame arrived for its standing scan).
func (nw *Network) endNap(id topology.NodeID, asn ASN) {
	nw.accrueNap(id, asn)
	nw.napUntil[id] = 0
	setBit(nw.standing, id, false)
	nw.setAwake(id, true)
}

// setBit puts a device into one of the node-ID bitsets or takes it out, and
// reports whether that changed the set.
func setBit(set []uint64, id topology.NodeID, on bool) bool {
	word, bit := &set[id>>6], uint64(1)<<(id&63)
	if (*word&bit != 0) == on {
		return false
	}
	*word ^= bit
	return true
}

// setAwake keeps nAwake in step with the awake set.
func (nw *Network) setAwake(id topology.NodeID, on bool) {
	if setBit(nw.awake, id, on) {
		if on {
			nw.nAwake++
		} else {
			nw.nAwake--
		}
	}
}

// trackAwake re-derives a device's membership in the awake and standing
// sets after a change made between slots (Attach, Wake, Fail, Restore,
// RestoreState), none of which leaves a standing scan behind. A device that
// leaves the awake set also stops planning: its op goes back to sleep,
// because the resolve phase takes whoever's op listens for a listener.
func (nw *Network) trackAwake(id topology.NodeID) {
	on := nw.devices[id] != nil && !nw.failed[id] && nw.napUntil[id] == 0
	nw.setAwake(id, on)
	setBit(nw.standing, id, false)
	if !on {
		nw.ops[id] = RadioOp{Kind: OpSleep}
	}
}

// rebuildAwake derives the awake set and the wake wheel from the failed and
// napUntil vectors (RestoreState). It asks the devices nothing: a restored
// nap is always a sleeping one, the only kind older captures carried.
func (nw *Network) rebuildAwake() {
	nw.wakes.reset()
	for i := 1; i <= nw.numDevs; i++ {
		id := topology.NodeID(i)
		nw.trackAwake(id)
		if w := nw.napUntil[id]; w != 0 && nw.devices[id] != nil && !nw.failed[id] {
			nw.wakes.file(id, w, nw.asn)
		}
	}
}

// idAt names the device of the lowest set bit of word, the wi-th word of a
// node-ID bitset. The phases walk a copy of each word, lowest bit first:
// ascending node ID.
func idAt(wi int, word uint64) topology.NodeID {
	return topology.NodeID(wi<<6 + bits.TrailingZeros64(word))
}

// run executes one phase of slot asn, clocking it on the sparse medium (the
// dense medium's slot is too short to clock three times). Phases are passed
// as method expressions, which capture nothing: the slot loop allocates
// nothing.
func (nw *Network) run(asn ASN, phase func(nw *Network, asn ASN)) {
	sc := nw.scale
	if sc == nil {
		phase(nw, asn)
		return
	}
	start := time.Now()
	phase(nw, asn)
	sc.busy += time.Since(start)
}

// ShardBusy returns, in a one-entry slice, the cumulative wall-clock time
// the slot loop spent in its phases on the sparse medium (nil on the dense
// medium): the whole of a run's slot time but the scheduled events and the
// fast-forward.
func (nw *Network) ShardBusy() []time.Duration {
	if nw.scale == nil {
		return nil
	}
	return []time.Duration{nw.scale.busy}
}

// drainTraces forwards the phase's buffered engine trace events in the
// order they were emitted.
func (nw *Network) drainTraces() {
	if nw.Trace != nil {
		for i := range nw.traces {
			nw.Trace(nw.traces[i])
		}
	}
	nw.traces = nw.traces[:0]
}

// emit records an engine trace event: inline on the dense medium, whose
// observers see engine and device events of one slot interleaved in node
// order, into the phase's buffer on the sparse one.
func (nw *Network) emit(ev TraceEvent) {
	switch {
	case nw.Trace == nil:
	case nw.scale == nil:
		nw.Trace(ev)
	default:
		nw.traces = append(nw.traces, ev)
	}
}

// Step executes one TSCH slot: plan, resolve the medium, report. Every
// phase walks the awake set in ascending node-ID order, the order the Plan
// and EndSlot calls of a full scan would have.
func (nw *Network) Step() {
	nw.started = true
	asn := nw.asn
	nw.fireEvents(asn)

	// All-napping fast-forward: when every attached live device is asleep,
	// jump straight to the earliest wake or scheduled event (bounded by the
	// Run target). Nothing can happen in between: no device plans, so the
	// medium is silent, and sleep accounting settles at each wake.
	if nw.runCap > asn+1 && nw.nAwake == 0 {
		target := nw.runCap
		if w, ok := nw.wakes.earliest(asn, nw.napUntil); ok && w < target {
			target = w
		}
		if len(nw.pending) > 0 && nw.pending[0].asn < target {
			target = nw.pending[0].asn
		}
		if target > asn {
			nw.stats.FastForwarded += target - asn
			nw.asn = target
			if target == nw.runCap {
				return // the Run target's own slot is the next call's first
			}
			asn = target
			nw.fireEvents(asn)
		}
	}

	// Phase 1: wake the devices whose nap ends, then plans. On the dense
	// medium the plans refill the per-channel transmitter lists.
	for _, ch := range nw.activeCh {
		nw.byChannel[ch] = nw.byChannel[ch][:0]
	}
	nw.activeCh = nw.activeCh[:0]
	nw.run(asn, (*Network).planPhase)
	nw.drainTraces()

	// Phase 2: medium resolution. Engine code, and of the devices only a
	// roused scanner's AccrueNap, which is pure accounting.
	nw.run(asn, (*Network).resolvePhase)
	nw.drainTraces()

	// Phase 3: energy classes, reports and nap decisions.
	nw.run(asn, (*Network).finishPhase)

	nw.asn++
}

func (nw *Network) planPhase(asn ASN) {
	nw.txs = nw.txs[:0]
	nw.wakeDue(asn)
	for wi, word := range nw.awake {
		for ; word != 0; word &= word - 1 {
			nw.planOne(idAt(wi, word), asn)
		}
	}
}

// finishPhase may clear a device's bit in nw.awake (a nap decision) while
// it walks: the bit is one the walk's copy of the word has passed.
func (nw *Network) finishPhase(asn ASN) {
	for wi, word := range nw.awake {
		for ; word != 0; word &= word - 1 {
			nw.finishOne(idAt(wi, word), asn)
		}
	}
}

// wakeDue returns to the awake set every device whose nap ends at asn,
// settling the skipped slots before the device plans again. Overtaken
// entries are dropped: the device was woken, and may nap anew.
func (nw *Network) wakeDue(asn ASN) {
	b := &nw.wakes.ring[asn%wakeHorizon]
	for _, id := range *b {
		if nw.napUntil[id] == asn {
			nw.endNap(topology.NodeID(id), asn)
		}
	}
	*b = (*b)[:0]
	for far := &nw.wakes.far; len(*far) > 0 && (*far)[0].asn <= asn; {
		if e := far.pop(); nw.napUntil[e.ord] == e.asn {
			nw.endNap(topology.NodeID(e.ord), asn)
		}
	}
}

// planOne runs the plan phase for one awake device: the Plan call, drift,
// the slot's audible-transmitter lists and the transmit trace.
func (nw *Network) planOne(id topology.NodeID, asn ASN) {
	op := nw.devices[id].Plan(asn)
	nw.ops[id] = op
	nw.reports[id] = SlotReport{Op: op}
	switch op.Kind {
	case OpSleep:
		nw.stats.PlanSleep++
	case OpTx:
		nw.stats.PlanTx++
	case OpRx:
		nw.stats.PlanRx++
	case OpScan:
		nw.stats.PlanScan++
	}
	if nw.driftProb != nil {
		// A misaligned slot: the radio acts outside the network's guard
		// window, so the node's transmission decodes nowhere and its listen
		// hears nothing — but the energy is still spent (finishOne charges
		// the op's activity class as planned).
		if nw.misses[id] = nw.driftMiss(int(id), asn); nw.misses[id] {
			return
		}
	}
	if op.Kind == OpTx {
		if op.Frame == nil {
			// A transmit plan with no frame degrades to sleep.
			nw.ops[id] = RadioOp{Kind: OpSleep}
			nw.reports[id].Op = nw.ops[id]
			return
		}
		// An out-of-band plan is transmitted and traced but never heard.
		switch {
		case int(op.Channel) >= len(nw.byChannel):
		case nw.scale != nil:
			nw.txs = append(nw.txs, id)
			nw.stats.Rows++
		default:
			if len(nw.byChannel[op.Channel]) == 0 {
				nw.activeCh = append(nw.activeCh, op.Channel)
			}
			nw.byChannel[op.Channel] = append(nw.byChannel[op.Channel], id)
		}
		nw.emit(TraceEvent{ASN: asn, Kind: TraceTx,
			Src: id, Dst: op.Frame.Dst, Frame: op.Frame, Channel: op.Channel})
	}
}

// finishOne assigns the slot's energy class, delivers the report, and asks
// the device for its next wake.
func (nw *Network) finishOne(id topology.NodeID, asn ASN) {
	d := nw.devices[id]
	op := nw.ops[id]
	rep := &nw.reports[id]
	switch op.Kind {
	case OpSleep:
		rep.Activity = phy.ActivitySleep
	case OpScan:
		rep.Activity = phy.ActivityScan
	case OpRx:
		if rep.Activity == 0 {
			rep.Activity = phy.ActivityRxIdle
		}
	case OpTx:
		if op.NeedAck {
			rep.Activity = phy.ActivityTxAwaitAck
		} else {
			rep.Activity = phy.ActivityTx
		}
	}
	d.EndSlot(asn, *rep)
	if np := nw.nappers[id]; np != nil {
		if w, standing := np.NextWake(asn); w > asn+1 {
			nw.nap(id, asn, w, standing)
		}
	}
}

// nap takes a device that has just ended slot asn out of the awake set until
// slot w, on the op it promised to plan meanwhile.
func (nw *Network) nap(id topology.NodeID, asn, w ASN, standing RadioOp) {
	nw.napUntil[id] = w
	nw.setAwake(id, false)
	nw.napStart[id] = asn
	nw.wakes.file(id, w, asn+1)
	// No plan will overwrite the op while the device naps, and the resolve
	// phase reads it: it is what the device does meanwhile.
	if standing.Kind == OpScan {
		nw.ops[id] = standing
		setBit(nw.standing, id, true)
	} else {
		nw.ops[id] = RadioOp{Kind: OpSleep}
	}
}
