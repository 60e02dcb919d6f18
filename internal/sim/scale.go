package sim

import (
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
// resolve the medium, report — and lets devices that implement Napper sleep
// through their structurally idle stretches. Each shard keeps the set of its
// devices that are awake and a queue of the slots at which the others wake,
// so a slot costs what its awake devices cost, not a visit to every node,
// and Run fast-forwards the clock to the earliest wake or scheduled event
// when every device is napping. What differs between the two media is only
// how a listener finds its transmitters and where the randomness comes from.
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
//     adjacency. A listener resolves receptions by scanning its own
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
// idle stretches. After EndSlot(asn) the engine asks NextWake(asn); a
// return w > asn+1 promises the device would plan OpSleep for every slot
// in (asn, w), and the engine then skips its Plan/EndSlot calls until
// slot w (or until Network.Wake). On waking, AccrueSleep(k) reports the k
// skipped slots so the device can settle its per-slot accounting exactly
// as if EndSlot had been called with a sleep report k times. The promise
// cuts both ways: a device woken before w (Network.Wake, a dense capture)
// plans the sleep it promised, with no other effect, and naps again.
type Napper interface {
	NextWake(asn ASN) ASN
	AccrueSleep(slots int64)
}

// Hash salts separating the independent per-(slot, src, dst) draw streams.
const (
	saltFade      = 1
	saltDecode    = 2
	saltAckFade   = 3
	saltAckDecode = 4
)

// shard is what one shard's goroutine owns: the awake set and wake queue of
// its node-ID range, resolution scratch, and the trace buffer drained in
// shard order after each parallel section. Each shard's set is its own
// allocation, so no two shard goroutines share a word.
type shard struct {
	lo int // first node ID of the range

	// awake has bit id-lo set for every device the slot loop visits:
	// attached, not failed, not napping. nAwake counts the set bits.
	awake  []uint64
	nAwake int
	// wakes holds a (wake slot, node ID) entry per nap decision. An entry
	// whose slot is no longer the device's napUntil was overtaken by Wake
	// or Fail and is skipped.
	wakes slotHeap[struct{}]

	traces    []TraceEvent
	cand      []candidate
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

// Wake cancels a napping device's remaining sleep: it settles the skipped
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
		if nw.napUntil[id] != 0 && nw.napStart[id] < nw.asn-1 {
			nw.accrueNap(topology.NodeID(id), nw.asn)
			nw.napStart[id] = nw.asn - 1
		}
	}
}

// accrueNap reports to a napping device the slots it has skipped before asn.
func (nw *Network) accrueNap(id topology.NodeID, asn ASN) {
	if slept := asn - nw.napStart[id] - 1; slept > 0 {
		if np, ok := nw.devices[id].(Napper); ok {
			np.AccrueSleep(slept)
		}
	}
}

// setAwake puts a device of the shard's range into the awake set or takes
// it out, keeping nAwake in step; setting a set bit changes nothing.
func (sh *shard) setAwake(id topology.NodeID, on bool) {
	word, bit := &sh.awake[(int(id)-sh.lo)>>6], uint64(1)<<((int(id)-sh.lo)&63)
	switch {
	case on && *word&bit == 0:
		*word |= bit
		sh.nAwake++
	case !on && *word&bit != 0:
		*word &^= bit
		sh.nAwake--
	}
}

// trackAwake re-derives a device's membership in its shard's awake set
// after a change made between slots (Attach, Wake, Fail, Restore). A device
// that leaves the set also stops planning: its op goes back to sleep so
// that neighbours scanning their rows in the resolve phase never see what
// it did in its last slot.
func (nw *Network) trackAwake(id topology.NodeID) {
	on := nw.devices[id] != nil && !nw.failed[id] && nw.napUntil[id] == 0
	nw.sh[nw.ShardOf(id)].setAwake(id, on)
	if !on {
		nw.ops[id] = RadioOp{Kind: OpSleep}
	}
}

// rebuildShards derives every shard's awake set and wake queue from the
// failed and napUntil vectors (RestoreState).
func (nw *Network) rebuildShards() {
	for _, sh := range nw.sh {
		sh.wakes = sh.wakes[:0]
	}
	for i := 1; i <= nw.numDevs; i++ {
		id := topology.NodeID(i)
		nw.trackAwake(id)
		if w := nw.napUntil[id]; w != 0 && nw.devices[id] != nil && !nw.failed[id] {
			nw.sh[nw.ShardOf(id)].wakes.push(slotEntry[struct{}]{asn: w, ord: uint64(id)})
		}
	}
}

// earliestWake returns the first slot at which a napping device wakes,
// dropping overtaken entries from the queue heads on the way; ok is false
// when no device is napping.
func (nw *Network) earliestWake() (w ASN, ok bool) {
	for _, sh := range nw.sh {
		for len(sh.wakes) > 0 && nw.napUntil[sh.wakes[0].ord] != sh.wakes[0].asn {
			sh.wakes.pop()
		}
		if len(sh.wakes) > 0 && (!ok || sh.wakes[0].asn < w) {
			w, ok = sh.wakes[0].asn, true
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

// slotHash derives the order-independent draw for one (slot, src, dst,
// salt) event.
func (nw *Network) slotHash(asn ASN, a, b topology.NodeID, salt uint64) uint64 {
	h := detrand.Mix(nw.scale.seedHash, uint64(asn))
	h = detrand.Mix(h, uint64(a))
	h = detrand.Mix(h, uint64(b))
	return detrand.Mix(h, salt)
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

	// Phase 2: medium resolution per listener, shard-parallel. Pure engine
	// code — no device calls — so no parallel notification is needed; each
	// listener writes only its own report plus the unique Acked flag of a
	// unicast sender addressing it.
	nw.run(asn, (*Network).resolveShard)
	nw.drainTraces()

	// Phase 3: energy classes, reports and nap decisions, shard-parallel.
	nw.notifyParallel(true)
	nw.run(asn, (*Network).finishShard)
	nw.notifyParallel(false)

	nw.asn++
}

func (nw *Network) planShard(sh *shard, asn ASN) {
	nw.wakeDue(sh, asn)
	for wi, word := range sh.awake {
		for ; word != 0; word &= word - 1 {
			nw.planOne(sh.idAt(wi, word), asn, sh)
		}
	}
}

func (nw *Network) resolveShard(sh *shard, asn ASN) {
	for wi, word := range sh.awake {
		for ; word != 0; word &= word - 1 {
			id := sh.idAt(wi, word)
			op := nw.ops[id]
			if op.Kind != OpRx && op.Kind != OpScan {
				continue
			}
			if nw.driftProb != nil && nw.misses[id] {
				continue // listening outside the slot's guard window
			}
			if nw.scale == nil {
				nw.resolveListener(id, op, asn)
			} else {
				nw.resolveListenerScale(id, op, asn, sh)
			}
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
// or before asn, settling the skipped slots before the device plans again.
func (nw *Network) wakeDue(sh *shard, asn ASN) {
	for len(sh.wakes) > 0 && sh.wakes[0].asn <= asn {
		e := sh.wakes.pop()
		id := topology.NodeID(e.ord)
		if nw.napUntil[id] != e.asn {
			continue // overtaken: the device was woken, and may nap anew
		}
		nw.accrueNap(id, asn)
		nw.napUntil[id] = 0
		sh.setAwake(id, true)
	}
}

// planOne runs the plan phase for one awake device: the Plan call, drift,
// the dense medium's transmitter lists and the transmit trace.
func (nw *Network) planOne(id topology.NodeID, asn ASN, sh *shard) {
	op := nw.devices[id].Plan(asn)
	nw.ops[id] = op
	nw.reports[id] = SlotReport{Op: op}
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
		if nw.scale == nil && int(op.Channel) < len(nw.byChannel) {
			if len(nw.byChannel[op.Channel]) == 0 {
				nw.activeCh = append(nw.activeCh, op.Channel)
			}
			nw.byChannel[op.Channel] = append(nw.byChannel[op.Channel], id)
		}
		nw.emit(sh, TraceEvent{ASN: asn, Kind: TraceTx,
			Src: id, Dst: op.Frame.Dst, Frame: op.Frame, Channel: op.Channel})
	}
}

// resolveListenerScale decides what a listener hears, walking the
// listener's sparse neighbour row instead of the global per-channel
// transmitter lists: per-slot resolution cost is O(degree), independent
// of network size. The row is in ascending neighbour-ID order, so
// candidate ordering — and with it capture ties and the interference
// summation order — is identical for every shard count.
func (nw *Network) resolveListenerScale(listener topology.NodeID, op RadioOp, asn ASN, buf *shard) {
	sc := nw.scale
	rep := &nw.reports[listener]
	cols, vals, base := sc.sparse.Row(listener)
	wide := op.Kind == OpScan && op.Channel == 0

	cands := buf.cand[:0]
	for i, src := range cols {
		sop := &nw.ops[src]
		if sop.Kind != OpTx {
			continue
		}
		if int(sop.Channel) >= int(phy.LastChannel)+1 {
			continue // out-of-band plan: never heard (legacy parity)
		}
		if !wide && sop.Channel != op.Channel {
			continue
		}
		if nw.driftProb != nil && nw.misses[src] {
			continue // transmitter fired outside the guard window
		}
		mean := vals[i]
		if sc.fade != nil {
			mean -= sc.fade[base+i]
		}
		rss := mean + detrand.Norm(nw.slotHash(asn, src, listener, saltFade))*nw.FastFadingSigmaDB
		if rss >= phy.SensitivityDBm {
			cands = append(cands, candidate{src: src, rss: rss, ch: sop.Channel})
		}
	}
	buf.cand = cands
	if len(cands) == 0 {
		return // idle listen
	}

	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].rss > cands[best].rss {
			best = i
		}
	}
	interf := buf.interf[:0]
	for i, c := range cands {
		if i != best && c.ch == cands[best].ch {
			interf = append(interf, c.rss)
		}
	}
	interf = nw.interferenceAt(listener, cands[best].ch, asn, interf)
	buf.interf = interf

	rep.Activity = phy.ActivityRxFrame
	if phy.SIRdB(cands[best].rss, interf) < phy.CaptureThresholdDB {
		rep.Collision = true
		nw.emit(buf, TraceEvent{ASN: asn, Kind: TraceCollision,
			Dst: listener, Channel: cands[best].ch})
		return
	}
	if detrand.Uniform(nw.slotHash(asn, cands[best].src, listener, saltDecode)) >= phy.PRR(cands[best].rss) {
		rep.Collision = true
		return
	}

	frame := nw.ops[cands[best].src].Frame
	if !frame.Broadcast() && frame.Dst != listener {
		return
	}
	rep.Received = frame
	rep.RSSI = cands[best].rss
	nw.emit(buf, TraceEvent{ASN: asn, Kind: TraceDeliver,
		Src: cands[best].src, Dst: listener, Frame: frame,
		Channel: cands[best].ch, RSS: cands[best].rss})

	if frame.Dst == listener && nw.ops[cands[best].src].NeedAck {
		rep.Activity = phy.ActivityRxFrameAck
		nw.resolveAckScale(cands[best].src, listener, cands[best].ch, asn, buf)
	}
}

// resolveAckScale decides whether the ACK decodes at the sender. Only the
// unique unicast destination reaches here for a given sender, so the
// cross-shard write to reports[sender].Acked has exactly one writer.
func (nw *Network) resolveAckScale(sender, receiver topology.NodeID, ch phy.Channel, asn ASN, buf *shard) {
	sc := nw.scale
	idx := sc.sparse.LinkIndex(receiver, sender)
	if idx < 0 {
		return // pruned link: the data frame arrived on fading luck, the ACK will not
	}
	mean := sc.sparse.ValueAt(idx)
	if sc.fade != nil {
		mean -= sc.fade[idx]
	}
	rss := mean + detrand.Norm(nw.slotHash(asn, receiver, sender, saltAckFade))*nw.FastFadingSigmaDB
	if rss < phy.SensitivityDBm {
		return
	}
	interf := nw.interferenceAt(sender, ch, asn, buf.ackInterf[:0])
	buf.ackInterf = interf
	if phy.SIRdB(rss, interf) < phy.CaptureThresholdDB {
		return
	}
	if detrand.Uniform(nw.slotHash(asn, receiver, sender, saltAckDecode)) < phy.PRR(rss+1.5) {
		nw.reports[sender].Acked = true
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
		if w := np.NextWake(asn); w > asn+1 {
			nw.napUntil[id] = w
			nw.napStart[id] = asn
			sh.setAwake(id, false)
			sh.wakes.push(slotEntry[struct{}]{asn: w, ord: uint64(id)})
			// No plan will overwrite the op while the device naps, and
			// neighbours scan their rows for transmitters: a transmitter
			// that naps right after its slot must not be heard again.
			nw.ops[id] = RadioOp{Kind: OpSleep}
		}
	}
}
