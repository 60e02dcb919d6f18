package sim

import (
	"fmt"
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// slotEntry is one entry of a slotHeap: due at asn, ordered within the slot
// by ord, carrying val.
type slotEntry[V any] struct {
	asn ASN
	ord uint64
	val V
}

// slotHeap is a binary min-heap ordered by (asn, ord). The event queue
// holds callbacks under their scheduling sequence number, which keeps
// same-slot events FIFO; a wake wheel's overflow holds node IDs. A heap
// keeps the per-slot cost of the common case — nothing due — at a single
// length check plus one comparison.
type slotHeap[V any] []slotEntry[V]

func (q slotHeap[V]) less(i, j int) bool {
	return q[i].asn < q[j].asn || (q[i].asn == q[j].asn && q[i].ord < q[j].ord)
}

func (q *slotHeap[V]) push(e slotEntry[V]) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *slotHeap[V]) pop() slotEntry[V] {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = slotEntry[V]{} // release what val references
	h = h[:last]
	*q = h
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(h) && h.less(left, smallest) {
			smallest = left
		}
		if right < len(h) && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// wakeHorizon is how many slots ahead a nap's wake is filed in a wake
// wheel's per-slot buckets; a wake further out overflows into its heap.
// Every bucket keeps the capacity of the most wakes one slot ever filed —
// about N for the slot of a frame every node shares — so the horizon is
// what the wheel's memory is a multiple of. 64 is the power of two above
// DiGS's 47-slot routing frame, which bounds a synchronised DiGS node's
// steady-state nap; scan dwells (500 slots) and long whart naps overflow.
const wakeHorizon = 64

// wakeWheel holds the network's nap wakes. A device napping until slot w is
// filed under w: in bucket w mod wakeHorizon when w is within the horizon
// of the first slot not yet drained, in the overflow heap otherwise. An
// entry is live while the device's napUntil names the slot its bucket is
// drained for (or the slot its heap entry carries); anything else — a nap
// ended early by Wake, Fail or a rouse, perhaps followed by another — was
// overtaken and is dropped when reached. Within the horizon a bucket is
// reached first at the very slot its entries name, or they are overtaken:
// the fast-forward never jumps a live wake, so a bucket it skips holds
// only overtaken entries.
type wakeWheel struct {
	ring [wakeHorizon][]int32 // node IDs, at half width: buckets keep their capacity
	far  slotHeap[struct{}]
}

// file records that id naps until w, next being the first slot whose
// bucket has not been drained yet. A wake already past (a restored state
// can name one) goes to the heap too, which hands it out at the next drain.
func (q *wakeWheel) file(id topology.NodeID, w, next ASN) {
	if uint64(w-next) < wakeHorizon {
		b := &q.ring[w%wakeHorizon]
		*b = append(*b, int32(id))
		return
	}
	q.far.push(slotEntry[struct{}]{asn: w, ord: uint64(id)})
}

// reset empties the wheel, keeping its memory.
func (q *wakeWheel) reset() {
	for i := range q.ring {
		q.ring[i] = q.ring[i][:0]
	}
	q.far = q.far[:0]
}

// earliest returns the first live wake at or after from, the first slot
// not yet drained; ok is false when none is filed. Overtaken entries on
// the way are dropped: a bucket with no live entry for its slot holds none
// that will ever be.
func (q *wakeWheel) earliest(from ASN, napUntil []ASN) (w ASN, ok bool) {
	for len(q.far) > 0 && napUntil[q.far[0].ord] != q.far[0].asn {
		q.far.pop()
	}
	end := from + wakeHorizon
	if len(q.far) > 0 {
		end = min(end, q.far[0].asn)
	}
	for t := from; t < end; t++ {
		b := &q.ring[t%wakeHorizon]
		for _, id := range *b {
			if napUntil[id] == t {
				return t, true
			}
		}
		*b = (*b)[:0]
	}
	if len(q.far) > 0 {
		return q.far[0].asn, true
	}
	return 0, false
}

// Network owns the shared medium and drives attached devices slot by slot.
type Network struct {
	topo        *topology.Topology
	devices     []Device // indexed by node ID; nil when not attached
	nappers     []Napper // the devices that nap, recorded at Attach; nil for the rest
	failed      []bool
	interferers []Interferer
	seed        int64
	rngSrc      *detrand.Source
	rng         *rand.Rand
	asn         ASN
	started     bool

	// FastFadingSigmaDB adds zero-mean Gaussian fading to each reception,
	// on top of the topology's static shadowing. It defaults to 2 dB.
	FastFadingSigmaDB float64

	// Trace, when non-nil, receives an event per transmission, delivery
	// and collision. It must be fast; it runs inline in the slot loop.
	Trace func(TraceEvent)

	pending  slotHeap[func()]
	eventSeq uint64

	// rss is a flat (n+1)x(n+1) copy of the topology's mean-RSS matrix,
	// captured at construction. The hot path indexes it directly instead
	// of going through topology.RSS's lazy-init check and nested slices,
	// and a Network never races other Networks on a shared topology's
	// lazily built cache.
	rss     []float64
	rssDim  int
	numDevs int

	// fade is a lazily allocated symmetric attenuation overlay (dB,
	// positive weakens the link), indexed like rss. The chaos layer uses
	// it for correlated link fades and network partitions; nil until the
	// first AddLinkFade keeps the unfaulted hot path branch-predictable.
	fade []float64

	// The slot loop's state, shared by both media (see scale.go): the awake
	// set and wake wheel, and the nap windows they are derived from.
	// napUntil[id] != 0 means the device naps until that slot (exclusive),
	// and ops[id] is what it does meanwhile: OpSleep, or its standing scan.
	// napStart[id] is the last slot a napping device was accounted for.
	napUntil []ASN
	napStart []ASN
	// awake has bit id set for every device the slot loop visits: attached,
	// not failed, not napping. nAwake counts the set bits. standing has it
	// set for every device napping on a standing scan — the dense resolve
	// walks awake|standing; the sparse gather needs no index, it finds a
	// standing scanner by its op like any listener.
	awake    []uint64
	nAwake   int
	standing []uint64
	// wakes files every nap decision under the slot the nap ends.
	wakes wakeWheel
	// runCap bounds the all-napping fast-forward so Run/RunUntil stop at
	// their target slot; 0 means single-stepping (no fast-forward).
	runCap ASN
	stats  LoopStats

	// scale, when non-nil, makes the medium the sparse one (see scale.go):
	// CSR neighbour rows and counter-based draws instead of the dense rss
	// matrix, the byChannel lists and the sequential rng.
	scale *scaleState

	// driftProb holds each node's per-slot clock misalignment
	// probability (0 = slot timer healthy), driftSeed the deterministic
	// per-node hash seed; both nil until the first SetClockDrift.
	driftProb []float64
	driftSeed []uint64
	misses    []bool // per-slot scratch: node misaligned this slot

	// Scratch buffers reused across slots: the steady-state slot loop
	// performs zero heap allocations. byChannel, activeCh and txScratch are
	// the dense medium's audible transmitters of the slot, per channel in
	// ascending node ID; txs is the sparse medium's, in ascending node ID.
	ops       []RadioOp
	reports   []SlotReport
	byChannel [phy.LastChannel + 1][]topology.NodeID
	activeCh  []phy.Channel
	txScratch []topology.NodeID
	txs       []topology.NodeID
	// hear[id] is listener id's list of the slot's detectable transmissions
	// on the sparse medium, in ascending source ID; heard has bit id set
	// while that list is not empty (resolve.go).
	hear  [][]candidate
	heard []uint64
	// traces buffers the sparse medium's engine trace events of a phase.
	traces    []TraceEvent
	cand      []candidate // the dense medium's one listener at a time
	interf    []float64
	ackInterf []float64
}

// newNetwork builds what both media share: the device table, the slot
// loop's sets and nap vectors, and the per-node op and report scratch.
func newNetwork(topo *topology.Topology, seed int64) *Network {
	n := topo.N()
	words := (n + 1 + 63) / 64
	return &Network{
		topo:              topo,
		devices:           make([]Device, n+1),
		nappers:           make([]Napper, n+1),
		failed:            make([]bool, n+1),
		seed:              seed,
		rngSrc:            detrand.New(seed),
		FastFadingSigmaDB: 2.0,
		rssDim:            n + 1,
		numDevs:           n,
		napUntil:          make([]ASN, n+1),
		napStart:          make([]ASN, n+1),
		awake:             make([]uint64, words),
		standing:          make([]uint64, words),
		ops:               make([]RadioOp, n+1),
		reports:           make([]SlotReport, n+1),
	}
}

// NewNetwork creates an empty network over the given topology, seeded for
// reproducibility, on the dense medium: a flat RSS matrix, per-channel
// transmitter lists and one sequential generator whose draw order every
// golden pins.
func NewNetwork(topo *topology.Topology, seed int64) *Network {
	nw := newNetwork(topo, seed)
	nw.rng = rand.New(nw.rngSrc)
	nw.rss = make([]float64, nw.rssDim*nw.rssDim)
	nw.activeCh = make([]phy.Channel, 0, phy.NumChannels)
	for a := 1; a <= nw.numDevs; a++ {
		for b := 1; b <= nw.numDevs; b++ {
			nw.rss[a*nw.rssDim+b] = topo.RSS(topology.NodeID(a), topology.NodeID(b))
		}
	}
	return nw
}

// rssAt returns the cached mean RSS of the link a->b, minus any active
// fade overlay.
func (nw *Network) rssAt(a, b topology.NodeID) float64 {
	r := nw.rss[int(a)*nw.rssDim+int(b)]
	if nw.fade != nil {
		r -= nw.fade[int(a)*nw.rssDim+int(b)]
	}
	return r
}

// AddLinkFade attenuates the link between a and b by dB in both
// directions, on top of the topology's static model (fault injection:
// correlated fades, partitions). Fades accumulate; pass a negative dB to
// lift one. Out-of-range IDs and self-links are ignored.
func (nw *Network) AddLinkFade(a, b topology.NodeID, dB float64) {
	if a == b || a < 1 || b < 1 || int(a) >= nw.rssDim || int(b) >= nw.rssDim {
		return
	}
	if sc := nw.scale; sc != nil {
		// Scale mode keys fades on sparse link indices; a pruned link is
		// already unreceivable, so fading it is a no-op.
		i, j := sc.sparse.LinkIndex(a, b), sc.sparse.LinkIndex(b, a)
		if i < 0 || j < 0 {
			return
		}
		if sc.fade == nil {
			sc.fade = make([]float64, sc.sparse.Links())
		}
		sc.fade[i] += dB
		sc.fade[j] += dB
		return
	}
	if nw.fade == nil {
		nw.fade = make([]float64, len(nw.rss))
	}
	nw.fade[int(a)*nw.rssDim+int(b)] += dB
	nw.fade[int(b)*nw.rssDim+int(a)] += dB
}

// SetClockDrift gives a node's slot timer a deterministic misalignment: in
// each slot, with probability missProb (clamped to [0,1]), the node's
// radio window misses the network's slot — its transmissions decode
// nowhere and it hears nothing, while still spending the energy. This
// abstracts accumulated oscillator drift exceeding the TSCH guard time
// between resynchronisations. missProb 0 restores a healthy timer. The
// per-slot decision is a pure hash of (seed, node, asn), so drift is
// reproducible and consumes no draws from the network's RNG.
func (nw *Network) SetClockDrift(id topology.NodeID, missProb float64, seed int64) {
	if id < 1 || int(id) >= nw.rssDim {
		return
	}
	if nw.driftProb == nil {
		if missProb <= 0 {
			return
		}
		nw.driftProb = make([]float64, nw.rssDim)
		nw.driftSeed = make([]uint64, nw.rssDim)
		nw.misses = make([]bool, nw.rssDim)
	}
	if missProb < 0 {
		missProb = 0
	} else if missProb > 1 {
		missProb = 1
	}
	nw.driftProb[id] = missProb
	nw.driftSeed[id] = uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)
}

// driftMiss reports whether a drifting node's slot timer misses the given
// slot, as a pure function of (seed, node, asn).
func (nw *Network) driftMiss(id int, asn ASN) bool {
	p := nw.driftProb[id]
	if p <= 0 {
		return false
	}
	x := nw.driftSeed[id] ^ uint64(asn)*0x9E3779B97F4A7C15
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < p
}

// Topology returns the deployment the network runs over.
func (nw *Network) Topology() *topology.Topology { return nw.topo }

// ASN returns the current absolute slot number.
func (nw *Network) ASN() ASN { return nw.asn }

// Started reports whether the network has executed at least one slot.
func (nw *Network) Started() bool { return nw.started }

// Attach registers a device. It returns an error if the ID is outside the
// topology, already attached, or the simulation has already started
// stepping (the engine's scratch buffers and channel lists assume a fixed
// device set once the slot loop runs).
func (nw *Network) Attach(d Device) error {
	if nw.started {
		return fmt.Errorf("attach device %d: simulation already started (attach all devices before the first Step)", d.ID())
	}
	id := d.ID()
	if id < 1 || int(id) > nw.topo.N() {
		return fmt.Errorf("attach device %d: outside topology (1..%d)", id, nw.topo.N())
	}
	if nw.devices[id] != nil {
		return fmt.Errorf("attach device %d: already attached", id)
	}
	nw.devices[id] = d
	nw.nappers[id], _ = d.(Napper)
	nw.trackAwake(id)
	return nil
}

// AddInterferer registers an interference source.
func (nw *Network) AddInterferer(i Interferer) {
	nw.interferers = append(nw.interferers, i)
}

// Fail marks a node as dead: it stops planning, transmitting and receiving.
func (nw *Network) Fail(id topology.NodeID) {
	if id >= 1 && int(id) < len(nw.failed) {
		nw.Wake(id) // settle nap accounting up to the failure
		nw.failed[id] = true
		nw.trackAwake(id)
	}
}

// Restore brings a failed node back.
func (nw *Network) Restore(id topology.NodeID) {
	if id >= 1 && int(id) < len(nw.failed) {
		nw.failed[id] = false
		nw.Wake(id)
		nw.trackAwake(id)
	}
}

// Failed reports whether a node is currently dead.
func (nw *Network) Failed(id topology.NodeID) bool {
	return id >= 1 && int(id) < len(nw.failed) && nw.failed[id]
}

// Run advances the network to the slot `slots` after the current one. A
// single Step may fast-forward through a stretch where every device naps,
// so the loop tracks the slot clock, not the call count; the fast-forward
// cap keeps it from overshooting the target.
func (nw *Network) Run(slots int64) {
	target := nw.asn + slots
	nw.runCap = target
	for nw.asn < target {
		nw.Step()
	}
	nw.runCap = 0
}

// RunUntil advances the network until the predicate returns true or the
// slot budget is exhausted. It returns the number of slots advanced and
// whether the predicate fired. Like Run it jumps over stretches in which
// every device naps and no event is due, so the predicate is asked before
// the first slot and after every slot the loop executes, never inside such
// a stretch. Nothing a device or the medium holds changes there, so a
// predicate over network or device state gets the answer it would have got
// slot by slot, at the same slot. A clock bound is maxSlots' job: a
// predicate on the slot number alone sees the clock only where a slot runs.
func (nw *Network) RunUntil(maxSlots int64, done func() bool) (int64, bool) {
	start := nw.asn
	target := start + maxSlots
	nw.runCap = target
	fired := done()
	for !fired && nw.asn < target {
		nw.Step()
		fired = done()
	}
	nw.runCap = 0
	return nw.asn - start, fired
}

// At schedules fn to run at the start of the given slot (failure injection,
// scenario phase changes, measurement snapshots). A past-dated slot fires
// at the next slot boundary instead of being silently dropped, so relative
// scenario scripts with negative or stale offsets still execute. Events
// for the same slot fire in scheduling order.
func (nw *Network) At(asn ASN, fn func()) {
	if asn < nw.asn {
		asn = nw.asn
	}
	nw.eventSeq++
	nw.pending.push(slotEntry[func()]{asn: asn, ord: nw.eventSeq, val: fn})
}

// fireEvents runs, in scheduling order, every event due at or before asn.
func (nw *Network) fireEvents(asn ASN) {
	for len(nw.pending) > 0 && nw.pending[0].asn <= asn {
		nw.pending.pop().val()
	}
}

// interferenceAt appends the powers of all active interferers covering the
// channel as heard at the given node.
func (nw *Network) interferenceAt(at topology.NodeID, ch phy.Channel, asn ASN, into []float64) []float64 {
	for _, i := range nw.interferers {
		if !i.ActiveOn(asn, ch) {
			continue
		}
		p := i.PowerAtDBm(at)
		if p > phy.NoiseFloorDBm {
			into = append(into, p)
		}
	}
	return into
}
