package sim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// One slot loop, two media. Network.Step is the only slot loop: it walks
// each shard's awake set in ascending node ID through three phases — plan,
// resolve the medium, report — and lets devices that implement Napper nap
// through the stretches in which they would plan the same thing every slot:
// sleep, or one passive scan. Each shard keeps the set of its devices that
// are awake and a queue of the slots at which the others wake, so a slot
// costs its radio events — the awake devices' calls and the transmitters'
// rows — not a visit to every node, and Run fast-forwards the clock to the
// earliest wake or scheduled event when no device is awake. What differs
// between the two media is only how transmissions find their listeners and
// where the randomness comes from (resolve.go).
//
// The dense medium (NewNetwork) is the paper-scale one: a flat (n+1)^2 RSS
// matrix, per-channel transmitter lists filled as devices plan, and one
// sequential generator. Every golden pins that generator's draw order, and
// the order is the order listeners resolve in, so the dense medium is always
// exactly one shard and emits its trace events inline.
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
//     of a shared sequential generator. Draw values therefore do not
//     depend on the order listeners resolve, which is what makes the
//     output invariant across shard counts — the same trick the engine
//     already used for clock-drift decisions.
//
//  3. Devices are partitioned into contiguous node-ID ranges, one per
//     shard, and the three phases run shard-parallel; per-shard event
//     buffers are drained in shard order after each parallel section,
//     which is ascending node-ID order and therefore the same order for 1,
//     2, 4 or 8 shards. The procedural generators assign IDs in spatial
//     scan order, so contiguous ID ranges are also spatially compact
//     regions. Access points always land in shard 0 (lowest IDs), making
//     that goroutine the only one that runs sink callbacks and touches
//     gateway-side state.

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
	// Rows counts the transmitter rows the sparse gather walked (each shard
	// walks its own ID range of every row), Hearings the detectable
	// transmissions handed to the decide routine on either medium.
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

// LoopStats sums the shards' counters.
func (nw *Network) LoopStats() LoopStats {
	var t LoopStats
	for _, sh := range nw.sh {
		c := &sh.stats
		t.PlanSleep += c.PlanSleep
		t.PlanTx += c.PlanTx
		t.PlanRx += c.PlanRx
		t.PlanScan += c.PlanScan
		t.Rouses += c.Rouses
		t.Rows += c.Rows
		t.Hearings += c.Hearings
		t.FastForwarded += c.FastForwarded
	}
	return t
}

// shard is what one shard's goroutine owns: the awake set and wake wheel of
// its node-ID range, resolution scratch, and the trace buffer drained in
// shard order after each parallel section. Each shard's set is its own
// allocation, so no two shard goroutines share a word.
type shard struct {
	lo, hi int // the half-open node-ID range

	// awake has bit id-lo set for every device the slot loop visits:
	// attached, not failed, not napping. nAwake counts the set bits.
	// standing has it set for every device napping on a standing scan — the
	// dense resolve walks awake|standing; the sparse gather needs no index,
	// it finds a standing scanner by its op like any listener.
	awake    []uint64
	nAwake   int
	standing []uint64
	// wakes files every nap decision under the slot the nap ends.
	wakes wakeWheel

	// txs lists the range's audible transmitters of the slot on the sparse
	// medium, in ascending node ID: filled by the plan phase, read by every
	// shard's resolve phase.
	txs []topology.NodeID

	// hear[id-lo] is listener id's list of the slot's detectable
	// transmissions on the sparse medium, in ascending source ID; heard has
	// bit id-lo set while that list is not empty (resolve.go).
	hear  [][]candidate
	heard []uint64

	stats LoopStats

	traces    []TraceEvent
	cand      []candidate // the dense medium's one listener at a time
	interf    []float64
	ackInterf []float64
}

// scaleState is what only the sparse medium has.
type scaleState struct {
	sparse   *topology.SparseRSS
	seedHash uint64

	// shardBusy accumulates wall-clock time spent in each shard's device
	// phases; busy is the goroutine-safe accumulator behind it.
	shardBusy []time.Duration
	busy      []atomic.Int64

	// fade is the link attenuation overlay keyed by sparse link index
	// (directed entries, kept symmetric); nil until the first AddLinkFade.
	fade []float64
}

// NewScaleNetwork creates a network on the sparse medium, over the
// topology's radius-pruned adjacency, partitioned into the given number of
// shards. Output is bit-identical for any shard count (the dense medium
// resolves in a different order under a different RNG discipline, so dense
// and sparse runs are each internally deterministic but not comparable to
// each other). Shard counts are clamped to [1, n].
func NewScaleNetwork(topo *topology.Topology, seed int64, shards int) *Network {
	shards = max(1, min(shards, topo.N()))
	nw := newNetwork(topo, seed, shards) // nw.rng stays nil: draws are counter-based
	nw.scale = &scaleState{
		sparse:    topo.SparseView(),
		seedHash:  detrand.Mix(0, uint64(seed)),
		shardBusy: make([]time.Duration, shards),
		busy:      make([]atomic.Int64, shards),
	}
	for _, sh := range nw.sh {
		sh.hear = make([][]candidate, sh.hi-sh.lo)
		sh.heard = make([]uint64, len(sh.awake))
	}
	return nw
}

// shardBounds splits 1..n into `shards` contiguous half-open ranges,
// keeping every access point (IDs 1..numAPs) inside shard 0 so sink
// callbacks and the event heap have a single owning goroutine per phase.
func shardBounds(n, numAPs, shards int) []int {
	bounds := make([]int, shards+1)
	bounds[0] = 1
	for s := 1; s < shards; s++ {
		b := 1 + (n*s)/shards
		if b < numAPs+1 {
			b = numAPs + 1
		}
		if b < bounds[s-1] {
			b = bounds[s-1]
		}
		bounds[s] = b
	}
	bounds[shards] = n + 1
	return bounds
}

// ScaleMode reports whether this network runs on the sparse medium.
func (nw *Network) ScaleMode() bool { return nw.scale != nil }

// ShardCount returns the number of shards (always 1 on the dense medium).
func (nw *Network) ShardCount() int { return len(nw.sh) }

// ShardOf returns the shard owning the given node. Telemetry splitters use
// it to give each node the buffer matching the goroutine that will record
// through it.
func (nw *Network) ShardOf(id topology.NodeID) int {
	b := nw.bounds
	for s := 0; s < len(b)-1; s++ {
		if int(id) < b[s+1] {
			return s
		}
	}
	return len(b) - 2
}

// SetParallelNotify installs a hook called with true right before each of
// an executed slot's two device phases and false right after it joins.
// Telemetry splitters on the sparse medium use it to switch between direct
// and per-shard buffered recording.
func (nw *Network) SetParallelNotify(fn func(parallel bool)) { nw.notify = fn }

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
		since, activity = &nw.scanStart[id], phy.ActivityScan
	}
	if skipped := asn - *since - 1; skipped > 0 {
		if np, ok := nw.devices[id].(Napper); ok {
			np.AccrueNap(skipped, activity)
		}
	}
	return since
}

// endNap settles a napping device of the shard up to asn and returns it to
// the awake set (its nap is over, or a frame arrived for its standing scan).
func (nw *Network) endNap(sh *shard, id topology.NodeID, asn ASN) {
	nw.accrueNap(id, asn)
	nw.napUntil[id] = 0
	sh.set(sh.standing, id, false)
	sh.setAwake(id, true)
}

// set puts a device of the shard's range into one of the shard's sets or
// takes it out, and reports whether that changed the set.
func (sh *shard) set(set []uint64, id topology.NodeID, on bool) bool {
	word, bit := &set[(int(id)-sh.lo)>>6], uint64(1)<<((int(id)-sh.lo)&63)
	if (*word&bit != 0) == on {
		return false
	}
	*word ^= bit
	return true
}

// setAwake keeps nAwake in step with the awake set.
func (sh *shard) setAwake(id topology.NodeID, on bool) {
	if sh.set(sh.awake, id, on) {
		if on {
			sh.nAwake++
		} else {
			sh.nAwake--
		}
	}
}

// trackAwake re-derives a device's membership in its shard's sets after a
// change made between slots (Attach, Wake, Fail, Restore, RestoreState),
// none of which leaves a standing scan behind. A device that leaves the
// awake set also stops planning: its op goes back to sleep, because the
// resolve phase takes whoever's op listens for a listener.
func (nw *Network) trackAwake(id topology.NodeID) {
	on := nw.devices[id] != nil && !nw.failed[id] && nw.napUntil[id] == 0
	sh := nw.sh[nw.ShardOf(id)]
	sh.setAwake(id, on)
	sh.set(sh.standing, id, false)
	if !on {
		nw.ops[id] = RadioOp{Kind: OpSleep}
	}
}

// rebuildShards derives every shard's awake set and wake wheel from the
// failed and napUntil vectors (RestoreState). It asks the devices nothing:
// a captured nap is always a sleeping one.
func (nw *Network) rebuildShards() {
	for _, sh := range nw.sh {
		sh.wakes.reset()
	}
	for i := 1; i <= nw.numDevs; i++ {
		id := topology.NodeID(i)
		nw.trackAwake(id)
		if w := nw.napUntil[id]; w != 0 && nw.devices[id] != nil && !nw.failed[id] {
			nw.sh[nw.ShardOf(id)].wakes.file(id, w, nw.asn)
		}
	}
}

// earliestWake returns the first slot at which a napping device wakes; ok
// is false when no device is napping. It is asked before the current slot
// is drained.
func (nw *Network) earliestWake() (w ASN, ok bool) {
	for _, sh := range nw.sh {
		if sw, sok := sh.wakes.earliest(nw.asn, nw.napUntil); sok && (!ok || sw < w) {
			w, ok = sw, true
		}
	}
	return w, ok
}

// idAt names the device of the lowest set bit of word, the wi-th word of the
// shard's awake set. The phases walk a copy of each word, lowest bit first:
// ascending node ID.
func (sh *shard) idAt(wi int, word uint64) topology.NodeID {
	return topology.NodeID(sh.lo + wi<<6 + bits.TrailingZeros64(word))
}

func (nw *Network) allNapping() bool {
	for _, sh := range nw.sh {
		if sh.nAwake > 0 {
			return false
		}
	}
	return true
}

// run executes one phase of slot asn once per shard, in parallel when the
// network has more than one, accumulating each sparse shard's busy time
// (the dense medium's slot is too short to clock six times). Phases are
// passed as method expressions, which capture nothing: on one shard the
// slot loop allocates nothing.
func (nw *Network) run(asn ASN, phase func(nw *Network, sh *shard, asn ASN)) {
	sc := nw.scale
	if sc == nil {
		phase(nw, nw.sh[0], asn)
		return
	}
	if len(nw.sh) == 1 {
		start := time.Now()
		phase(nw, nw.sh[0], asn)
		sc.shardBusy[0] += time.Since(start)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(nw.sh))
	for s := range nw.sh {
		go func(s int) {
			defer wg.Done()
			start := time.Now()
			phase(nw, nw.sh[s], asn)
			sc.busy[s].Add(int64(time.Since(start)))
		}(s)
	}
	wg.Wait()
	for s := range nw.sh {
		sc.shardBusy[s] = time.Duration(sc.busy[s].Load())
	}
}

// ShardBusy returns the cumulative wall-clock time each shard goroutine
// spent executing device phases (nil on the dense medium). On a single-CPU
// host the per-shard times sum to roughly the whole run — the benchmark
// reports use them to label a ~1.0x "speedup" as scheduler time-slicing
// rather than real parallel speedup.
func (nw *Network) ShardBusy() []time.Duration {
	if nw.scale == nil {
		return nil
	}
	return append([]time.Duration(nil), nw.scale.shardBusy...)
}

// drainTraces forwards each shard's buffered engine trace events in shard
// order — ascending node-ID order, identical for every shard count.
func (nw *Network) drainTraces() {
	for _, sh := range nw.sh {
		if nw.Trace != nil {
			for i := range sh.traces {
				nw.Trace(sh.traces[i])
			}
		}
		sh.traces = sh.traces[:0]
	}
}

// emit records an engine trace event: inline on the dense medium, whose
// observers see engine and device events of one slot interleaved in node
// order, into the shard's buffer on the sparse one.
func (nw *Network) emit(sh *shard, ev TraceEvent) {
	switch {
	case nw.Trace == nil:
	case nw.scale == nil:
		nw.Trace(ev)
	default:
		sh.traces = append(sh.traces, ev)
	}
}

func (nw *Network) notifyParallel(on bool) {
	if nw.notify != nil {
		nw.notify(on)
	}
}

// Step executes one TSCH slot: plan, resolve the medium, report. Every
// phase walks the shard's awake set in ascending node-ID order, the order
// the Plan and EndSlot calls of a full scan would have.
func (nw *Network) Step() {
	nw.started = true
	asn := nw.asn
	nw.fireEvents(asn)

	// All-napping fast-forward: when every attached live device is asleep,
	// jump straight to the earliest wake or scheduled event (bounded by the
	// Run target). Nothing can happen in between: no device plans, so the
	// medium is silent, and sleep accounting settles at each wake.
	if nw.runCap > asn+1 && nw.allNapping() {
		target := nw.runCap
		if w, ok := nw.earliestWake(); ok && w < target {
			target = w
		}
		if len(nw.pending) > 0 && nw.pending[0].asn < target {
			target = nw.pending[0].asn
		}
		if target > asn {
			nw.sh[0].stats.FastForwarded += target - asn
			nw.asn = target
			if target == nw.runCap {
				return // the Run target's own slot is the next call's first
			}
			asn = target
			nw.fireEvents(asn)
		}
	}

	// Phase 1: wake the devices whose nap ends, then plans, shard-parallel.
	// On the dense medium the plans refill the per-channel transmitter lists.
	for _, ch := range nw.activeCh {
		nw.byChannel[ch] = nw.byChannel[ch][:0]
	}
	nw.activeCh = nw.activeCh[:0]
	nw.notifyParallel(true)
	nw.run(asn, (*Network).planShard)
	nw.notifyParallel(false)
	nw.drainTraces()

	// Phase 2: medium resolution, shard-parallel. Engine code, and of the
	// devices only a roused scanner's AccrueNap, which is pure accounting —
	// so no parallel notification is needed; each listener writes only its
	// own report plus the unique Acked flag of a unicast sender addressing it.
	nw.run(asn, (*Network).resolveShard)
	nw.drainTraces()

	// Phase 3: energy classes, reports and nap decisions, shard-parallel.
	nw.notifyParallel(true)
	nw.run(asn, (*Network).finishShard)
	nw.notifyParallel(false)

	nw.asn++
}

func (nw *Network) planShard(sh *shard, asn ASN) {
	sh.txs = sh.txs[:0]
	nw.wakeDue(sh, asn)
	for wi, word := range sh.awake {
		for ; word != 0; word &= word - 1 {
			nw.planOne(sh.idAt(wi, word), asn, sh)
		}
	}
}

// finishShard may clear a device's bit in sh.awake (a nap decision) while
// it walks: the bit is one the walk's copy of the word has passed.
func (nw *Network) finishShard(sh *shard, asn ASN) {
	for wi, word := range sh.awake {
		for ; word != 0; word &= word - 1 {
			nw.finishOne(sh.idAt(wi, word), asn, sh)
		}
	}
}

// wakeDue returns to the shard's awake set every device whose nap ends at
// asn, settling the skipped slots before the device plans again. Overtaken
// entries are dropped: the device was woken, and may nap anew.
func (nw *Network) wakeDue(sh *shard, asn ASN) {
	b := &sh.wakes.ring[asn%wakeHorizon]
	for _, id := range *b {
		if nw.napUntil[id] == asn {
			nw.endNap(sh, topology.NodeID(id), asn)
		}
	}
	*b = (*b)[:0]
	for far := &sh.wakes.far; len(*far) > 0 && (*far)[0].asn <= asn; {
		if e := far.pop(); nw.napUntil[e.ord] == e.asn {
			nw.endNap(sh, topology.NodeID(e.ord), asn)
		}
	}
}

// planOne runs the plan phase for one awake device: the Plan call, drift,
// the slot's audible-transmitter lists and the transmit trace.
func (nw *Network) planOne(id topology.NodeID, asn ASN, sh *shard) {
	op := nw.devices[id].Plan(asn)
	nw.ops[id] = op
	nw.reports[id] = SlotReport{Op: op}
	switch op.Kind {
	case OpSleep:
		sh.stats.PlanSleep++
	case OpTx:
		sh.stats.PlanTx++
	case OpRx:
		sh.stats.PlanRx++
	case OpScan:
		sh.stats.PlanScan++
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
			sh.txs = append(sh.txs, id)
			sh.stats.Rows++
		default:
			if len(nw.byChannel[op.Channel]) == 0 {
				nw.activeCh = append(nw.activeCh, op.Channel)
			}
			nw.byChannel[op.Channel] = append(nw.byChannel[op.Channel], id)
		}
		nw.emit(sh, TraceEvent{ASN: asn, Kind: TraceTx,
			Src: id, Dst: op.Frame.Dst, Frame: op.Frame, Channel: op.Channel})
	}
}

// finishOne assigns the slot's energy class, delivers the report, and asks
// the device for its next wake.
func (nw *Network) finishOne(id topology.NodeID, asn ASN, sh *shard) {
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
	if np, ok := d.(Napper); ok {
		if w, standing := np.NextWake(asn); w > asn+1 {
			nw.nap(sh, id, asn, w, standing)
		}
	}
}

// nap takes a device of the shard that has just ended slot asn out of the
// awake set until slot w, on the op it promised to plan meanwhile.
func (nw *Network) nap(sh *shard, id topology.NodeID, asn, w ASN, standing RadioOp) {
	nw.napUntil[id] = w
	sh.setAwake(id, false)
	sh.wakes.file(id, w, asn+1)
	// No plan will overwrite the op while the device naps, and the resolve
	// phase reads it: it is what the device does meanwhile.
	if standing.Kind == OpScan {
		nw.ops[id] = standing
		nw.scanStart[id] = asn
		sh.set(sh.standing, id, true)
	} else {
		nw.ops[id] = RadioOp{Kind: OpSleep}
		nw.napStart[id] = asn
	}
}
