package sim

import (
	"math"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// The resolve phase: who hears what. Both media start from the slot's
// audible transmitters — the handful of devices whose plan put a frame on
// the air inside the guard window — and both hand each listener's detectable
// transmissions, in ascending source ID, to the one decide routine. What
// differs is the gather and where the draws come from.
//
// The sparse medium walks the transmitters' neighbour rows and files each
// detectable transmission at the tail of its listener's hearing list, so a
// slot costs its transmitters' degrees, not its listeners'. The rows are
// walked in ascending transmitter ID, so every list is in ascending source
// ID as filed; the listeners with a list are marked in a bitmap over the
// node IDs, and walking it decides them in ascending ID. That is
// the order a walk of every listener's own row produces, with no sort:
// capture ties, interference sums, trace order and the counter-based draws
// cannot tell the two apart. Rows are symmetric (SparseRSS, AddLinkFade),
// so the transmitter's entry for a listener is the listener's entry for
// the transmitter, bit for bit.
//
// The dense medium keeps the listener's side of the walk, over the
// per-channel transmitter lists, because its sequential generator draws
// fading per (listener, transmitter on its channel) in listener order, also
// below sensitivity, and every golden pins that order.

// candidate is one detectable transmission from src, at the listener
// whose list holds it.
type candidate struct {
	src topology.NodeID
	rss float64
	ch  phy.Channel
}

// air is what the decide routine asks of a medium about the slot being
// resolved: the mean RSS of the return link an ACK travels, and the three
// draws made only once a frame got that far — so the dense generator is
// stepped in the order it always was, and the sparse hashes are never
// computed in vain.
type air interface {
	// returnRSS is the mean RSS of the link from->to, fades included; ok is
	// false when the medium holds no such link.
	returnRSS(from, to topology.NodeID) (rss float64, ok bool)
	decodeDraw(src, dst topology.NodeID) float64    // uniform
	ackFadeDraw(from, to topology.NodeID) float64   // standard normal
	ackDecodeDraw(from, to topology.NodeID) float64 // uniform
}

// denseAir draws from the sequential generator, in call order.
type denseAir struct{ nw *Network }

func (a denseAir) returnRSS(from, to topology.NodeID) (float64, bool) {
	return a.nw.rssAt(from, to), true
}
func (a denseAir) decodeDraw(topology.NodeID, topology.NodeID) float64 {
	return a.nw.rng.Float64()
}
func (a denseAir) ackFadeDraw(topology.NodeID, topology.NodeID) float64 {
	return a.nw.rng.NormFloat64()
}
func (a denseAir) ackDecodeDraw(topology.NodeID, topology.NodeID) float64 {
	return a.nw.rng.Float64()
}

// Hash salts separating the independent per-(slot, src, dst) draw streams.
const (
	saltFade      = 1
	saltDecode    = 2
	saltAckFade   = 3
	saltAckDecode = 4
)

// sparseAir draws by hashing (seed, slot, from, to, salt): a draw's value
// does not depend on when it is made, so the listeners may be decided in
// any order without moving a result. The slot's part of the hash is mixed
// once per slot (scaleState.slotKey).
type sparseAir struct{ nw *Network }

func (a sparseAir) returnRSS(from, to topology.NodeID) (float64, bool) {
	sc := a.nw.scale
	idx := sc.sparse.LinkIndex(from, to)
	if idx < 0 {
		return 0, false
	}
	mean := sc.sparse.ValueAt(idx)
	if sc.fade != nil {
		mean -= sc.fade[idx]
	}
	return mean, true
}
func (a sparseAir) decodeDraw(src, dst topology.NodeID) float64 {
	return detrand.Uniform(a.nw.scale.slotHash(src, dst, saltDecode))
}
func (a sparseAir) ackFadeDraw(from, to topology.NodeID) float64 {
	return detrand.Norm(a.nw.scale.slotHash(from, to, saltAckFade))
}
func (a sparseAir) ackDecodeDraw(from, to topology.NodeID) float64 {
	return detrand.Uniform(a.nw.scale.slotHash(from, to, saltAckDecode))
}

// slotHash derives the order-independent draw for one (src, dst, salt)
// event of the slot being resolved.
func (sc *scaleState) slotHash(src, dst topology.NodeID, salt uint64) uint64 {
	return drawHash(detrand.Mix(sc.slotKey, uint64(src)), dst, salt)
}

// drawHash finishes the draw of one (slot, src, dst, salt) event from the
// hash of its (slot, src) prefix: seed, slot and source folded in, in that
// order, by Mix.
func drawHash(srcKey uint64, dst topology.NodeID, salt uint64) uint64 {
	return detrand.Mix(detrand.Mix(srcKey, uint64(dst)), salt)
}

func (nw *Network) resolvePhase(asn ASN) {
	if nw.scale == nil {
		nw.resolveDense(asn)
	} else {
		nw.gatherSparse(asn)
		nw.decideHeard(asn)
	}
}

// listensOn reports whether the op is a listen that covers the channel: a
// wide-band scan (channel 0) hears the whole band, synchronised receivers
// and single-channel scanners only their channel.
func (op *RadioOp) listensOn(ch phy.Channel) bool {
	switch op.Kind {
	case OpRx:
		return op.Channel == ch
	case OpScan:
		return op.Channel == ch || op.Channel == 0
	}
	return false
}

// deaf reports whether a listener's radio window misses the slot (clock
// drift). The plan phase filled misses[] for the devices it visited; a
// standing scanner was not planned, so its miss is computed on demand.
func (nw *Network) deaf(l topology.NodeID, asn ASN) bool {
	if nw.driftProb == nil {
		return false
	}
	if nw.napUntil[l] != 0 {
		return nw.driftMiss(int(l), asn)
	}
	return nw.misses[l]
}

// gatherSparse walks the transmitters' rows in ascending source ID, filing
// every detectable transmission at the tail of its listener's hearing list.
// A fading draw that cannot lift the link's mean to sensitivity is not
// finished: the link's reach (fadeReach) says from its first uniform alone.
// A link with a fade on it always takes the full draw. It starts the slot's
// draws: the slot key decideHeard's draws are finished from is set here.
func (nw *Network) gatherSparse(asn ASN) {
	sc := nw.scale
	sc.slotKey = detrand.Mix(sc.seedHash, uint64(asn))
	sigma := nw.FastFadingSigmaDB
	reach := sc.fadeReach(sigma)
	for _, src := range nw.txs {
		ch := nw.ops[src].Channel
		cols, vals, base := sc.sparse.Row(src)
		srcKey := detrand.Mix(sc.slotKey, uint64(src))
		for i, l := range cols {
			// ops[l] is live for every l: a device that leaves the awake set
			// other than for a standing scan has it set to sleep.
			if !nw.ops[l].listensOn(ch) || nw.deaf(l, asn) {
				continue
			}
			h := drawHash(srcKey, l, saltFade)
			u1 := detrand.NormU1(h)
			mean := vals[i]
			if sc.fade != nil && sc.fade[base+i] != 0 {
				mean -= sc.fade[base+i]
			} else if u1 > reach[base+i] {
				continue
			}
			rss := mean + detrand.NormAt(h, u1)*sigma
			if rss >= phy.SensitivityDBm {
				nw.hear[l] = append(nw.hear[l], candidate{src: src, rss: rss, ch: ch})
				nw.heard[l>>6] |= 1 << (l & 63)
			}
		}
	}
}

// fadeReach returns the per-link table of reachOf at the given sigma, over
// the links' unfaded means, building it when sigma is new.
func (sc *scaleState) fadeReach(sigma float64) []float64 {
	if sc.reach != nil && sc.reachSigma == sigma {
		return sc.reach
	}
	if sc.reach == nil {
		sc.reach = make([]float64, sc.sparse.Links())
	}
	for i := range sc.reach {
		sc.reach[i] = reachOf(sc.sparse.ValueAt(i), sigma)
	}
	sc.reachSigma = sigma
	return sc.reach
}

// reachOf is the largest first uniform of a fading draw (detrand.NormU1)
// that can still lift a link of the given mean RSS to sensitivity at the
// given sigma. A draw reaches mean + Norm*sigma >= sensitivity only if its
// radius sqrt(-2 ln u1) — the most |Norm| can be — is at least t =
// (sensitivity - mean)/|sigma|, that is only if u1 <= exp(-t²/2). t is
// taken short by 1e-9 dB and by 1e-9 sigma, margins far above the rounding
// of the sum and of exp, so a draw skipped as u1 > reach would never have
// been heard. Below sensitivity at sigma 0 the draw adds nothing and no u1
// reaches (-1); a link at or within the margins of sensitivity, or a
// non-finite sigma, reaches with every u1 (1).
func reachOf(mean, sigma float64) float64 {
	s := math.Abs(sigma)
	switch t := (phy.SensitivityDBm-mean-1e-9)/s - 1e-9; {
	case s == 0 && mean < phy.SensitivityDBm:
		return -1
	case !(t > 0) || math.IsInf(s, 0):
		return 1
	default:
		return math.Exp(-t * t / 2)
	}
}

// decideHeard decides the listeners marked in the heard bitmap, in
// ascending ID, each on its hearing list, and empties the lists.
func (nw *Network) decideHeard(asn ASN) {
	for wi, word := range nw.heard {
		nw.heard[wi] = 0
		for ; word != 0; word &= word - 1 {
			l := idAt(wi, word)
			cands := nw.hear[l]
			nw.hear[l] = cands[:0]
			nw.decide(asn, l, cands, sparseAir{nw})
		}
	}
}

// resolveDense walks the listeners — the awake devices and the standing
// scanners, merged into one ascending walk because the generator's draws
// follow it — and gathers each one's candidates from the transmitter lists.
// A listener whose channel carries no transmitter draws nothing and hears
// nothing, which is all a standing scanner costs in most slots.
func (nw *Network) resolveDense(asn ASN) {
	for wi := range nw.awake {
		for word := nw.awake[wi] | nw.standing[wi]; word != 0; word &= word - 1 {
			l := idAt(wi, word)
			op := &nw.ops[l]
			if op.Kind != OpRx && op.Kind != OpScan {
				continue
			}
			// The wide-band gather walks channels in ascending order so the
			// generator's fading draws are consumed in a fixed order.
			var txs []topology.NodeID
			if op.Kind == OpScan && op.Channel == 0 {
				if len(nw.activeCh) == 0 {
					continue
				}
				wide := nw.txScratch[:0]
				for ch := phy.FirstChannel; ch <= phy.LastChannel; ch++ {
					wide = append(wide, nw.byChannel[ch]...)
				}
				nw.txScratch = wide
				txs = wide
			} else if int(op.Channel) < len(nw.byChannel) {
				txs = nw.byChannel[op.Channel]
			}
			if len(txs) == 0 || nw.deaf(l, asn) {
				continue
			}
			cands := nw.cand[:0]
			for _, src := range txs {
				if src == l {
					continue
				}
				rss := nw.rssAt(src, l) + nw.rng.NormFloat64()*nw.FastFadingSigmaDB
				if rss >= phy.SensitivityDBm {
					cands = append(cands, candidate{src: src, rss: rss, ch: nw.ops[src].Channel})
				}
			}
			nw.cand = cands
			if len(cands) > 0 {
				nw.decide(asn, l, cands, denseAir{nw})
			}
		}
	}
}

// decide settles what listener l makes of the slot's detectable
// transmissions (at least one, in ascending source ID): the strongest frame
// against co-channel interference, capture, the decode draw, the address
// filter, the delivery and its ACK. A standing scanner is roused only when a
// frame is delivered to it: for OpScan the energy class is fixed whatever
// was detected, and a collision or an undecoded frame leaves nothing else in
// the report that EndSlot would read — its trace event is emitted here all
// the same, in the same place in the order.
func (nw *Network) decide(asn ASN, l topology.NodeID, cands []candidate, a air) {
	standing := nw.napUntil[l] != 0
	if standing {
		nw.reports[l] = SlotReport{Op: nw.ops[l]} // stale since its last visit
	}
	rep := &nw.reports[l]
	nw.stats.Hearings += int64(len(cands))

	// Strongest candidate competes against the rest plus interference.
	best := &cands[0]
	for i := 1; i < len(cands); i++ {
		if cands[i].rss > best.rss {
			best = &cands[i]
		}
	}
	interf := nw.interf[:0]
	for i := range cands {
		if c := &cands[i]; c != best && c.ch == best.ch {
			interf = append(interf, c.rss)
		}
	}
	interf = nw.interferenceAt(l, best.ch, asn, interf)
	nw.interf = interf

	rep.Activity = phy.ActivityRxFrame // energy was spent regardless of decode
	if !phy.Captures(best.rss, interf) {
		rep.Collision = true
		nw.emit(TraceEvent{ASN: asn, Kind: TraceCollision, Dst: l, Channel: best.ch})
		return
	}
	if a.decodeDraw(best.src, l) >= phy.PRR(best.rss) {
		rep.Collision = true // undecodable: counts as noise for the listener
		return
	}

	frame := nw.ops[best.src].Frame
	if !frame.Broadcast() && frame.Dst != l {
		// Overheard unicast for someone else: MAC filters it out, but the
		// energy was spent.
		return
	}
	rep.Received = frame
	rep.RSSI = best.rss
	nw.emit(TraceEvent{ASN: asn, Kind: TraceDeliver, Src: best.src,
		Dst: l, Frame: frame, Channel: best.ch, RSS: best.rss})

	// ACK for unicast frames addressed to this listener.
	if frame.Dst == l && nw.ops[best.src].NeedAck {
		rep.Activity = phy.ActivityRxFrameAck
		nw.decideAck(asn, best.src, l, best.ch, a)
	}
	if standing {
		nw.stats.Rouses++
		nw.endNap(l, asn) // the report phase hands it the frame this slot
	}
}

// decideAck decides whether the ACK from receiver back to sender decodes.
func (nw *Network) decideAck(asn ASN, sender, receiver topology.NodeID, ch phy.Channel, a air) {
	rss, ok := a.returnRSS(receiver, sender)
	if !ok {
		return
	}
	rss += a.ackFadeDraw(receiver, sender) * nw.FastFadingSigmaDB
	if rss < phy.SensitivityDBm {
		return
	}
	interf := nw.interferenceAt(sender, ch, asn, nw.ackInterf[:0])
	nw.ackInterf = interf
	if !phy.Captures(rss, interf) {
		return
	}
	// ACKs are short; give them a small robustness bonus over full frames.
	if a.ackDecodeDraw(receiver, sender) < phy.PRR(rss+1.5) {
		nw.reports[sender].Acked = true
	}
}
