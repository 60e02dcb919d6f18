package sim

import (
	"fmt"
	"slices"
	"testing"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// The sparse medium used to resolve a slot from the listeners' side: every
// awake listener walked its own neighbour row looking for transmitters. That
// walk is kept here, as it was, as the oracle of the transmitter-driven
// gather that replaced it: same inputs (the ops and drift misses the plan
// phase left), its own reports and trace, nothing shared with resolve.go
// but the hash the draws come from. It finishes every fading draw and
// computes every SIR, so it is also the oracle of the shortcuts that skip
// them (fadeReach, phy.Captures).

type oracle struct {
	nw      *Network
	reports []SlotReport
	heard   []hearing // in the order the listeners were decided
	traces  []TraceEvent
}

// listens reports whether the oracle resolves device l this slot, and
// whether its radio window misses the slot: the awake devices as planned,
// plus the standing scanners, which before they could stand were awake
// devices planning that scan — and drawing that drift miss — every slot.
func (o *oracle) listens(l topology.NodeID, asn ASN) (listens, missed bool) {
	nw := o.nw
	if nw.devices[l] == nil || nw.failed[l] {
		return false, false
	}
	if nw.napUntil[l] != 0 {
		return nw.ops[l].Kind == OpScan, nw.driftProb != nil && nw.driftMiss(int(l), asn)
	}
	return true, nw.driftProb != nil && nw.misses[l]
}

// oracleHash is the draw of one (slot, src, dst, salt) event, folded from
// the seed in one go.
func oracleHash(nw *Network, asn ASN, a, b topology.NodeID, salt uint64) uint64 {
	h := detrand.Mix(nw.scale.seedHash, uint64(asn))
	h = detrand.Mix(h, uint64(a))
	h = detrand.Mix(h, uint64(b))
	return detrand.Mix(h, salt)
}

// hearing is what one listener is handed to decide.
type hearing struct {
	l     topology.NodeID
	cands []candidate
}

func (h hearing) equal(o hearing) bool { return h.l == o.l && slices.Equal(h.cands, o.cands) }

// handed lists what decideHeard will hand the listeners: each one's hearing
// list, in the order it walks them.
func handed(nw *Network) []hearing {
	var out []hearing
	for wi, word := range nw.heard {
		for ; word != 0; word &= word - 1 {
			l := idAt(wi, word)
			out = append(out, hearing{l, nw.hear[l]})
		}
	}
	return out
}

func (o *oracle) resolve(asn ASN) {
	nw := o.nw
	o.traces = o.traces[:0]
	for id := range o.reports {
		o.reports[id] = SlotReport{Op: nw.ops[id]}
	}
	o.heard = o.heard[:0]
	for l := 1; l <= nw.numDevs; l++ {
		id := topology.NodeID(l)
		op := nw.ops[id]
		if on, missed := o.listens(id, asn); !on || missed || (op.Kind != OpRx && op.Kind != OpScan) {
			continue
		}
		o.resolveListener(id, op, asn)
	}
}

// resolveListener is the listener-side row scan the gather replaced.
func (o *oracle) resolveListener(listener topology.NodeID, op RadioOp, asn ASN) {
	nw, sc := o.nw, o.nw.scale
	rep := &o.reports[listener]
	cols, vals, base := sc.sparse.Row(listener)
	wide := op.Kind == OpScan && op.Channel == 0

	var cands []candidate
	for i, src := range cols {
		sop := &nw.ops[src]
		if sop.Kind != OpTx {
			continue
		}
		if int(sop.Channel) >= int(phy.LastChannel)+1 {
			continue // out-of-band plan: never heard
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
		rss := mean + detrand.Norm(oracleHash(nw, asn, src, listener, saltFade))*nw.FastFadingSigmaDB
		if rss >= phy.SensitivityDBm {
			cands = append(cands, candidate{src: src, rss: rss, ch: sop.Channel})
		}
	}
	if len(cands) == 0 {
		return // idle listen
	}
	o.heard = append(o.heard, hearing{listener, cands})

	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].rss > cands[best].rss {
			best = i
		}
	}
	var interf []float64
	for i, c := range cands {
		if i != best && c.ch == cands[best].ch {
			interf = append(interf, c.rss)
		}
	}
	interf = nw.interferenceAt(listener, cands[best].ch, asn, interf)

	rep.Activity = phy.ActivityRxFrame
	if phy.SIRdB(cands[best].rss, interf) < phy.CaptureThresholdDB {
		rep.Collision = true
		o.traces = append(o.traces, TraceEvent{ASN: asn, Kind: TraceCollision,
			Dst: listener, Channel: cands[best].ch})
		return
	}
	if detrand.Uniform(oracleHash(nw, asn, cands[best].src, listener, saltDecode)) >= phy.PRR(cands[best].rss) {
		rep.Collision = true
		return
	}

	frame := nw.ops[cands[best].src].Frame
	if !frame.Broadcast() && frame.Dst != listener {
		return
	}
	rep.Received = frame
	rep.RSSI = cands[best].rss
	o.traces = append(o.traces, TraceEvent{ASN: asn, Kind: TraceDeliver,
		Src: cands[best].src, Dst: listener, Frame: frame,
		Channel: cands[best].ch, RSS: cands[best].rss})

	if frame.Dst == listener && nw.ops[cands[best].src].NeedAck {
		rep.Activity = phy.ActivityRxFrameAck
		o.resolveAck(cands[best].src, listener, cands[best].ch, asn)
	}
}

// resolveAck is the ACK decision of the listener-side resolve.
func (o *oracle) resolveAck(sender, receiver topology.NodeID, ch phy.Channel, asn ASN) {
	nw, sc := o.nw, o.nw.scale
	idx := sc.sparse.LinkIndex(receiver, sender)
	if idx < 0 {
		return
	}
	mean := sc.sparse.ValueAt(idx)
	if sc.fade != nil {
		mean -= sc.fade[idx]
	}
	rss := mean + detrand.Norm(oracleHash(nw, asn, receiver, sender, saltAckFade))*nw.FastFadingSigmaDB
	if rss < phy.SensitivityDBm {
		return
	}
	interf := nw.interferenceAt(sender, ch, asn, nil)
	if phy.SIRdB(rss, interf) < phy.CaptureThresholdDB {
		return
	}
	if detrand.Uniform(oracleHash(nw, asn, receiver, sender, saltAckDecode)) < phy.PRR(rss+1.5) {
		o.reports[sender].Acked = true
	}
}

// oracleDevice plans as a pure function of (seed, id, slot) and keeps the
// Napper promise: talkers never nap; nappers act every period-th slot and
// sleep in between; scanners stand on one channel per dwell, wide ones on
// the whole band.
type oracleDevice struct {
	id     topology.NodeID
	role   int // 0 talker, 1 napper, 2 scanner, 3 wide-band scanner
	seed   uint64
	period ASN
	peers  []topology.NodeID
}

var oracleChannels = []phy.Channel{15, 15, 20, 26}

func (d *oracleDevice) ID() topology.NodeID     { return d.id }
func (d *oracleDevice) EndSlot(ASN, SlotReport) {}

func (d *oracleDevice) scan(asn ASN) RadioOp {
	if d.role == 3 {
		return RadioOp{Kind: OpScan}
	}
	h := detrand.Mix(d.seed, uint64(asn/d.period))
	return RadioOp{Kind: OpScan, Channel: oracleChannels[h%uint64(len(oracleChannels))]}
}

func (d *oracleDevice) Plan(asn ASN) RadioOp {
	if d.role >= 2 {
		return d.scan(asn)
	}
	if d.role == 1 && asn%d.period != 0 {
		return Sleep()
	}
	h := detrand.Mix(d.seed, uint64(asn))
	ch := oracleChannels[(h>>8)%uint64(len(oracleChannels))]
	switch h % 8 {
	case 0:
		return Sleep()
	case 1, 2:
		return RadioOp{Kind: OpTx, Channel: ch, Frame: &Frame{Kind: KindEB, Src: d.id, Dst: topology.Broadcast}}
	case 3:
		if len(d.peers) == 0 {
			return Sleep()
		}
		dst := d.peers[(h>>16)%uint64(len(d.peers))]
		return RadioOp{Kind: OpTx, Channel: ch, NeedAck: true, Frame: &Frame{Kind: KindData, Src: d.id, Dst: dst}}
	case 4, 5:
		return RadioOp{Kind: OpRx, Channel: ch}
	case 6:
		return RadioOp{Kind: OpScan, Channel: ch}
	default:
		if (h>>16)%4 == 0 { // out of band: transmitted, traced, never heard
			return RadioOp{Kind: OpTx, Channel: 40, Frame: &Frame{Kind: KindEB, Src: d.id, Dst: topology.Broadcast}}
		}
		return RadioOp{Kind: OpScan}
	}
}

func (d *oracleDevice) NextWake(asn ASN) (ASN, RadioOp) {
	switch d.role {
	case 0:
		return asn + 1, Sleep()
	case 1:
		return (asn/d.period + 1) * d.period, Sleep()
	}
	return ((asn+1)/d.period + 1) * d.period, d.scan(asn + 1)
}

func (d *oracleDevice) AccrueNap(int64, phy.SlotActivity) {}

// TestSparseGatherMatchesListenerScan: on random sparse deployments —
// fades, a drifting listener (a standing one and an awake one) and a
// drifting transmitter, wide-band and single-channel scanners, failed and
// napping neighbours, out-of-band plans, a fading sigma that changes
// mid-run — the
// transmitter-driven gather hands each listener, in decide order, the
// candidates its own row scan would have found, in that order, and leaves
// every device the report and the engine trace the old resolve would have,
// slot by slot.
func TestSparseGatherMatchesListenerScan(t *testing.T) {
	var detections, deliveries, acks, collisions, standingHeard int
	var deafStanding, deafAwake, muteTx int // slots a drifting clock missed
	for seed := int64(1); seed <= 8; seed++ {
		topo, err := topology.Generate(topology.GenParams{Kind: topology.GenField, Nodes: 46, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nw := NewScaleNetwork(topo, seed)
		n := topo.N()
		for i := 1; i <= n; i++ {
			id := topology.NodeID(i)
			h := detrand.Mix(uint64(seed), uint64(i))
			d := &oracleDevice{id: id, role: int(h % 4), seed: h, period: ASN(3 + (h>>4)%9)}
			d.peers, _, _ = nw.scale.sparse.Row(id)
			if err := nw.Attach(d); err != nil {
				t.Fatal(err)
			}
		}
		var traced []TraceEvent
		nw.Trace = func(ev TraceEvent) { traced = append(traced, ev) }
		o := &oracle{nw: nw, reports: make([]SlotReport, n+1)}
		before := make([]SlotReport, n+1)
		read, standing := make([]bool, n+1), make([]bool, n+1) // report read this slot; by a standing scanner
		pick := func(salt, asn uint64) topology.NodeID {
			return topology.NodeID(1 + detrand.Mix(uint64(seed)^salt, asn)%uint64(n))
		}

		for asn := ASN(0); asn < 400; asn++ {
			// Faults between slots: a fade, a failure, a recovery, drift on
			// whoever comes up (scanners, listeners and transmitters alike).
			switch a := uint64(asn); asn % 7 {
			case 1:
				nw.AddLinkFade(pick(1, a), pick(2, a), float64(asn%5)*4-6)
			case 2:
				nw.Fail(pick(3, a))
			case 4:
				nw.Restore(pick(3, a-2))
			case 5:
				nw.SetClockDrift(pick(4, a), float64(asn%3)*0.4, seed)
			}
			if asn == 200 {
				nw.FastFadingSigmaDB = float64(seed%3) * 3 // 0, 3 or 6 dB from here on
			}

			// Network.Step, with the oracle between plan and resolve.
			nw.run(asn, (*Network).planPhase)
			nw.drainTraces()
			o.resolve(asn)
			copy(before, nw.reports)
			for i := 1; i <= n; i++ {
				var missed bool
				read[i], missed = o.listens(topology.NodeID(i), asn)
				standing[i] = nw.napUntil[i] != 0
				switch {
				case !read[i] || !missed:
				case standing[i]:
					deafStanding++
				case nw.reports[i].Op.Kind == OpTx: // the plan as made; ops[] may have degraded it
					muteTx++
				default:
					deafAwake++
				}
			}
			// resolvePhase, with the oracle between gather and decide.
			traced = traced[:0]
			nw.run(asn, (*Network).gatherSparse)
			where := fmt.Sprintf("seed %d, slot %d", seed, asn)
			if got := handed(nw); !slices.EqualFunc(got, o.heard, hearing.equal) {
				t.Fatalf("%s: the listeners are handed\n %+v\ntheir row scans find\n %+v", where, got, o.heard)
			}
			nw.run(asn, (*Network).decideHeard)
			nw.drainTraces()
			if !slices.Equal(traced, o.traces) {
				t.Fatalf("%s: trace\n %+v\nwant\n %+v", where, traced, o.traces)
			}
			for i := 1; i <= n; i++ {
				want := o.reports[i]
				switch {
				case !read[i]:
					continue // failed or asleep: nobody reads its report
				case standing[i] && want.Activity == 0:
					want = before[i] // an undisturbed standing scanner is not touched
				}
				if nw.reports[i] != want {
					t.Fatalf("%s, device %d: report\n %+v\nwant\n %+v", where, i, nw.reports[i], want)
				}
				want = o.reports[i]
				if roused := nw.napUntil[i] == 0; standing[i] && roused != (want.Received != nil) {
					t.Fatalf("%s, standing scanner %d: roused %v on report %+v", where, i, roused, want)
				}
				if want.Activity != 0 {
					detections++
					if standing[i] {
						standingHeard++
					}
				}
				if want.Received != nil {
					deliveries++
				}
				if want.Acked {
					acks++
				}
				if want.Collision {
					collisions++
				}
			}
			nw.run(asn, (*Network).finishPhase)
			nw.asn++
		}
		if ls := nw.LoopStats(); ls.Rouses == 0 || ls.PlanScan == 0 || ls.PlanTx == 0 {
			t.Fatalf("seed %d: %+v: no standing scanner was ever roused", seed, ls)
		}
	}
	t.Logf("%d detections (%d at standing scanners): %d deliveries, %d acks, %d collisions",
		detections, standingHeard, deliveries, acks, collisions)
	t.Logf("drift: %d slots missed by standing scanners, %d by awake devices, %d by transmitters", deafStanding, deafAwake, muteTx)
	if deliveries == 0 || acks == 0 || collisions == 0 || standingHeard == 0 ||
		deafStanding == 0 || deafAwake == 0 || muteTx == 0 {
		t.Fatal("the comparison is vacuous in one of its cases")
	}
}
