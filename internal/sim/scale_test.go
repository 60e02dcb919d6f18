package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// medium is one of the two media of the one slot loop. Everything the loop
// does about naps — skipping calls, settling, waking, failing, jumping — is
// medium-independent, so the nap tests run on both. The sparse medium's
// draws are hashes of the seed, so its second seed runs every script under
// an independent set of fading and decode draws.
type medium struct {
	name  string
	seeds []int64
	build func(topo *topology.Topology, seed int64) *Network
}

var media = []medium{
	{"dense", []int64{1}, NewNetwork},
	{"sparse", []int64{1, 2}, NewScaleNetwork},
}

// onMedia runs the test once per medium and seed.
func onMedia(t *testing.T, test func(t *testing.T, m medium, seed int64)) {
	for _, m := range media {
		for _, seed := range m.seeds {
			t.Run(fmt.Sprintf("%s-%d", m.name, seed), func(t *testing.T) { test(t, m, seed) })
		}
	}
}

// napEvent is one entry of a napDevice's log: a Plan or EndSlot call with
// its slot, the sleep accrued since the previous Plan, and what was heard.
type napEvent struct {
	Kind    string // "plan" or "end"
	ASN     ASN
	Accrued int64           // plan: slots reported by AccrueNap since the last Plan
	From    topology.NodeID // end: source of the received frame, 0 if none
	Noise   bool            // end: energy detected that did not decode
}

// napDevice is a scripted Napper: plan and wake are pure functions of the
// slot, so a fresh instance continues exactly where a captured one stopped.
type napDevice struct {
	id   topology.NodeID
	plan func(asn ASN) RadioOp
	wake func(asn ASN) ASN // NextWake; nil never naps
	// stand, when set, is the scan the device stands on through its naps
	// (it must be what plan returns in every slot of the nap); nil sleeps.
	stand func(asn ASN) RadioOp
	log   []napEvent
	mute  bool // keep counters only (the allocation test)

	accrued int64 // AccrueNap total
	scanned int64 // of which in the scan class
	slots   int64 // EndSlot calls
	pending int64
}

func (d *napDevice) ID() topology.NodeID { return d.id }

func (d *napDevice) Plan(asn ASN) RadioOp {
	if !d.mute {
		d.log = append(d.log, napEvent{Kind: "plan", ASN: asn, Accrued: d.pending})
	}
	d.pending = 0
	if d.plan == nil {
		return Sleep()
	}
	return d.plan(asn)
}

func (d *napDevice) EndSlot(asn ASN, rep SlotReport) {
	d.slots++
	if d.mute {
		return
	}
	ev := napEvent{Kind: "end", ASN: asn, Noise: rep.Collision}
	if rep.Received != nil {
		ev.From = rep.Received.Src
	}
	d.log = append(d.log, ev)
}

func (d *napDevice) NextWake(asn ASN) (ASN, RadioOp) {
	if d.wake == nil {
		return asn + 1, Sleep()
	}
	if d.stand != nil {
		return d.wake(asn), d.stand(asn + 1)
	}
	return d.wake(asn), Sleep()
}

func (d *napDevice) AccrueNap(k int64, activity phy.SlotActivity) {
	d.accrued += k
	d.pending += k
	if activity == phy.ActivityScan {
		d.scanned += k
	}
}

// planned returns the slots the device planned in.
func (d *napDevice) planned() []ASN {
	var out []ASN
	for _, ev := range d.log {
		if ev.Kind == "plan" {
			out = append(out, ev.ASN)
		}
	}
	return out
}

// everyN wakes a device in the slots that are multiples of n.
func everyN(n ASN) func(ASN) ASN {
	return func(asn ASN) ASN { return (asn/n + 1) * n }
}

func (m medium) net(t *testing.T, nodes int, seed int64, devs ...*napDevice) *Network {
	t.Helper()
	nw := m.build(pairTopology(t, nodes), seed)
	for _, d := range devs {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// TestScaleNapSkipsDeviceCalls: inside a nap the engine calls neither Plan
// nor EndSlot, and at the wake AccrueNap reports exactly the skipped
// slots, so executed plus accrued slots always add up to the clock.
func TestScaleNapSkipsDeviceCalls(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		d := &napDevice{id: 1, wake: everyN(10)}
		nw := m.net(t, 2, seed, d)
		for i := 0; i < 35; i++ {
			nw.Step() // single steps: no fast-forward, every slot is executed
		}
		if got, want := d.planned(), []ASN{0, 10, 20, 30}; !reflect.DeepEqual(got, want) {
			t.Fatalf("planned in %v, want %v", got, want)
		}
		for _, ev := range d.log {
			switch {
			case ev.Kind == "plan" && ev.ASN > 0 && ev.Accrued != 9:
				t.Fatalf("wake at %d accrued %d slots, want 9", ev.ASN, ev.Accrued)
			case ev.Kind == "end" && ev.ASN%10 != 0:
				t.Fatalf("EndSlot(%d) inside a nap", ev.ASN)
			}
		}
		// Slots 31..34 are slept but not yet accounted: the lag SettleNaps closes.
		if d.slots+d.accrued != 31 {
			t.Fatalf("accounted %d slots before settling, want 31", d.slots+d.accrued)
		}
		nw.SettleNaps()
		nw.SettleNaps() // idempotent
		if d.slots+d.accrued != nw.ASN() {
			t.Fatalf("accounted %d slots after settling, clock at %d", d.slots+d.accrued, nw.ASN())
		}
		for nw.ASN() <= 40 {
			nw.Step()
		}
		if got := d.planned(); got[len(got)-1] != 40 {
			t.Fatalf("settling moved the wake: planned in %v", got)
		}
		if d.slots+d.accrued != nw.ASN() {
			t.Fatalf("accounted %d slots, clock at %d: settling double-counted", d.slots+d.accrued, nw.ASN())
		}
	})
}

// TestScaleWakeCancelsNap: Network.Wake settles the nap and the device
// plans in the very next slot; the queue entry of the cancelled nap is
// stale and must not wake the device a second time, even when the new nap
// ends in the same slot as the old one.
func TestScaleWakeCancelsNap(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		d := &napDevice{id: 1, wake: everyN(100)}
		other := &napDevice{id: 2} // never naps: keeps the loop stepping
		nw := m.net(t, 2, seed, d, other)
		nw.Run(5)
		nw.Wake(1)
		nw.Wake(1) // no nap left to cancel
		if d.accrued != 4 {
			t.Fatalf("Wake at slot 5 accrued %d slots, want 4 (slots 1..4)", d.accrued)
		}
		nw.Run(200)
		if got, want := d.planned(), []ASN{0, 5, 100, 200}; !reflect.DeepEqual(got, want) {
			t.Fatalf("planned in %v, want %v", got, want)
		}
		if d.slots+d.accrued != 201 {
			t.Fatalf("accounted %d slots up to the last wake, want 201", d.slots+d.accrued)
		}
	})
}

// TestScaleFailRestoreNapping: failing a napping device settles its nap up
// to the failure, a failed device is neither called nor accounted, and a
// restored one plans at once.
func TestScaleFailRestoreNapping(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		d := &napDevice{id: 1, wake: everyN(100)}
		other := &napDevice{id: 2}
		nw := m.net(t, 2, seed, d, other)
		nw.Run(10)
		nw.Fail(1)
		if d.accrued != 9 {
			t.Fatalf("Fail at slot 10 accrued %d slots, want 9", d.accrued)
		}
		nw.Run(140) // across the old wake slot 100
		if got, want := d.planned(), []ASN{0}; !reflect.DeepEqual(got, want) {
			t.Fatalf("failed device planned in %v, want %v", got, want)
		}
		nw.Restore(1)
		nw.Run(100)
		if got, want := d.planned(), []ASN{0, 150, 200}; !reflect.DeepEqual(got, want) {
			t.Fatalf("planned in %v, want %v", got, want)
		}
		// 10 slots before the failure, then 150..200 after the restore.
		if d.slots+d.accrued != 10+51 {
			t.Fatalf("accounted %d slots, want 61", d.slots+d.accrued)
		}
	})
}

// TestScaleFastForward: with every device napping, Run jumps to the
// earliest wake, to a pending event, and to its own target, and executes
// exactly the slots a slot-by-slot run would have had anything to do in.
func TestScaleFastForward(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		a := &napDevice{id: 1, wake: everyN(100)}
		b := &napDevice{id: 2, wake: everyN(70)}
		nw := m.net(t, 2, seed, a, b)
		var fired []ASN
		at := func(asn ASN) { nw.At(asn, func() { fired = append(fired, nw.ASN()) }) }
		at(50)
		at(130)

		// A slot is executed unless the fast-forward jumps over it.
		var mark, executed ASN
		count := func() {
			ls := nw.LoopStats()
			executed = nw.ASN() - mark - ls.FastForwarded
			mark = nw.ASN() - ls.FastForwarded
		}
		nw.Run(130)
		count()
		if nw.ASN() != 130 {
			t.Fatalf("Run(130) stopped at slot %d", nw.ASN())
		}
		if !reflect.DeepEqual(fired, []ASN{50}) {
			t.Fatalf("events fired at %v, want [50]: slot 130 is the next run's", fired)
		}
		if executed != 4 {
			t.Fatalf("executed %d slots up to 130, want 4 (0, the event's 50, 70, 100)", executed)
		}
		nw.Run(20)
		if nw.ASN() != 150 {
			t.Fatalf("second run stopped at slot %d, want 150", nw.ASN())
		}
		if !reflect.DeepEqual(fired, []ASN{50, 130}) {
			t.Fatalf("events fired at %v, want [50 130]", fired)
		}
		if got, want := a.planned(), []ASN{0, 100}; !reflect.DeepEqual(got, want) {
			t.Fatalf("device 1 planned in %v, want %v", got, want)
		}
		if got, want := b.planned(), []ASN{0, 70, 140}; !reflect.DeepEqual(got, want) {
			t.Fatalf("device 2 planned in %v, want %v", got, want)
		}

		// A woken device that naps anew leaves a stale entry at slot 200 at
		// the head of the queue; the jump must skip it.
		nw.Wake(1)
		a.wake = everyN(1000)
		nw.Run(1) // slot 150: device 1 plans and naps until 1000
		count()
		nw.Run(500)
		count()
		if got := a.planned(); got[len(got)-1] != 150 {
			t.Fatalf("stale entry woke device 1: planned in %v", got)
		}
		if executed != 7 {
			t.Fatalf("executed %d slots from 151 to 651, want device 2's 7 wakes (210, 280, ... 630)", executed)
		}

		// RunUntil jumps like Run: its predicate is next asked after the one
		// slot it executes, device 2's wake at 700.
		var asked []ASN
		ran, ok := nw.RunUntil(60, func() bool { asked = append(asked, nw.ASN()); return nw.ASN() >= 660 })
		if ran != 50 || !ok || !reflect.DeepEqual(asked, []ASN{651, 701}) {
			t.Fatalf("RunUntil over a stretch of naps ran %d slots (fired %v, asked at %v), want 50 (asked at [651 701])", ran, ok, asked)
		}
		if count(); executed != 1 {
			t.Fatalf("RunUntil executed %d slots from 651 to 701, want device 2's wake at 700", executed)
		}
	})
}

// TestScaleNappingTransmitterNotHeardAgain: a device that naps right after
// transmitting has no plan in the following slots; its neighbours — who on
// the sparse medium find transmitters by scanning their rows — must not hear
// the old frame again.
func TestScaleNappingTransmitterNotHeardAgain(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		frame := &Frame{Kind: KindEB, Src: 2, Dst: topology.Broadcast}
		tx := &napDevice{id: 2, plan: txPlan(frame, 15, false), wake: everyN(40)}
		rx := &napDevice{id: 1, plan: rxPlan(15)} // listens in every slot
		nw := m.net(t, 2, seed, tx, rx)
		nw.Run(100)
		var heard []ASN
		for _, ev := range rx.log {
			if ev.From == 2 {
				heard = append(heard, ev.ASN)
			}
		}
		if want := []ASN{0, 40, 80}; !reflect.DeepEqual(heard, want) {
			t.Fatalf("heard the napping transmitter in %v, want %v", heard, want)
		}

		// The same for an awake transmitter that fails right after its slot.
		tx.wake = nil
		nw.Wake(2)
		nw.Run(1) // slot 100: transmits, stays awake
		nw.Fail(2)
		nw.Run(5)
		for _, ev := range rx.log {
			if ev.From == 2 && ev.ASN > 100 {
				t.Fatalf("heard the failed transmitter in slot %d", ev.ASN)
			}
		}
	})
}

// dwellScan is the scan of a scripted standing scanner: channel 15, where
// the scripts transmit, in every other dwell of the given length, channel 20
// in the rest; and the wake function that naps to the dwell's end.
func dwellScan(dwell ASN) (scan func(ASN) RadioOp, wake func(ASN) ASN) {
	scan = func(asn ASN) RadioOp {
		return RadioOp{Kind: OpScan, Channel: phy.Channel(15 + 5*(asn/dwell%2))}
	}
	return scan, func(asn ASN) ASN { return ((asn+1)/dwell + 1) * dwell }
}

// scaleScript is a seven-device line in which even IDs beacon and odd IDs
// listen, each on its own wake period, so that naps, wakes and receptions
// interleave, and the last device is a standing
// scanner next to a beacon it hears in every other dwell. Every device
// keeps the Napper promise: outside its wake slots it would plan sleep, or
// the scan it stands on.
func scaleScript(t *testing.T, m medium, seed int64) (*Network, []*napDevice) {
	t.Helper()
	var devs []*napDevice
	for i := 1; i <= 6; i++ {
		period := ASN(2 + i%3)
		d := &napDevice{id: topology.NodeID(i), wake: everyN(period)}
		awake := rxPlan(15)
		if i%2 == 0 {
			awake = txPlan(&Frame{Kind: KindEB, Src: d.id, Dst: topology.Broadcast}, 15, false)
		}
		d.plan = func(asn ASN) RadioOp {
			if asn%period != 0 {
				return Sleep()
			}
			return awake(asn)
		}
		devs = append(devs, d)
	}
	scanner := &napDevice{id: 7}
	scanner.plan, scanner.wake = dwellScan(8)
	scanner.stand = scanner.plan
	devs = append(devs, scanner)
	return m.net(t, 7, seed, devs...), devs
}

// logsFrom renders every call the devices saw from slot `from` on. Of a
// standing scanner it renders what it heard: a capture ends its standing
// scan, so the visits in which it plans that scan again and hears nothing
// are the engine's business.
func logsFrom(devs []*napDevice, from ASN) string {
	out := ""
	for _, d := range devs {
		for _, ev := range d.log {
			if ev.ASN >= from && (d.stand == nil || ev.From != 0) {
				out += fmt.Sprintf("%d:%+v\n", d.id, ev)
			}
		}
	}
	return out
}

// actedFrom renders what the devices of a scaleScript did and heard from
// slot `from` on: their EndSlot calls in the slots they act in. The Plan
// calls a device woken early answers with the op it promised are the
// engine's business.
func actedFrom(devs []*napDevice, from ASN) string {
	out := ""
	for _, d := range devs {
		for _, ev := range d.log {
			acts := ev.ASN%ASN(2+int(d.id)%3) == 0
			if d.stand != nil {
				acts = ev.From != 0
			}
			if ev.Kind == "end" && ev.ASN >= from && acts {
				out += fmt.Sprintf("%d:%+v\n", d.id, ev)
			}
		}
	}
	return out
}

func requireHeard(t *testing.T, devs []*napDevice) {
	t.Helper()
	heard, roused := false, false
	for _, d := range devs {
		for _, ev := range d.log {
			heard = heard || ev.From != 0
			roused = roused || (ev.From != 0 && d.stand != nil)
		}
	}
	if !heard || !roused {
		t.Fatalf("script exchanges a frame: %v, rouses its standing scanner: %v: the comparison would be vacuous", heard, roused)
	}
}

// TestScaleNapStateAcrossShardCounts: a sparse capture ends every nap, as a
// dense one does, so its state carries no nap vectors, and the captured run
// continues exactly like the run that never stopped. A state that does carry
// them — what sparse captures wrote before they woke every device, and what
// older warm-pool entries hold — restores into a fresh network whose awake
// set and wake wheel are rebuilt from the vectors alone, and continues
// exactly like the straight run too. One state restores into any number of
// networks: the second restore, after the first has run on, is held to the
// same log.
func TestScaleNapStateAcrossShardCounts(t *testing.T) {
	const cut, total = 37, 120
	sparse := media[1]
	straight, ref := scaleScript(t, sparse, 1)
	straight.Run(total)
	want := logsFrom(ref, cut)
	requireHeard(t, ref)

	first, firstDevs := scaleScript(t, sparse, 1)
	first.Run(cut)
	if first.napUntil[7] == 0 || first.ops[7].Kind != OpScan {
		t.Fatal("the scanner is not standing at the cut: the capture would have no standing scan to end")
	}
	// The nap vectors an earlier build's capture took here: it ended the
	// standing scan and kept the sleeping naps.
	first.Wake(7)
	napUntil, napStart := slices.Clone(first.napUntil), slices.Clone(first.napStart)
	if !slices.ContainsFunc(napUntil, func(w ASN) bool { return w != 0 }) {
		t.Fatal("nobody napping at the cut: the restore would have nothing to rebuild")
	}
	st, err := first.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.NapUntil != nil || st.NapStart != nil {
		t.Fatal("sparse capture carries nap vectors")
	}
	first.Run(total - cut)
	if got, want := actedFrom(firstDevs, cut), actedFrom(ref, cut); got != want {
		t.Fatalf("captured run diverged from the straight run\n got:\n%s\nwant:\n%s", got, want)
	}
	st.NapUntil, st.NapStart = napUntil, napStart
	for _, name := range []string{"first restore", "second restore"} {
		second, devs := scaleScript(t, sparse, 1)
		if err := second.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		second.Run(total - cut)
		if got := logsFrom(devs, cut); got != want {
			t.Fatalf("%s: diverged from the straight run\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestDenseCaptureEndsNaps: a dense capture settles and ends every nap, so
// its state carries no nap vectors and no lagging account; the captured run
// and a run resumed from the capture both continue like the one that never
// stopped.
func TestDenseCaptureEndsNaps(t *testing.T) {
	const cut, total = 37, 120
	dense := media[0]
	straight, ref := scaleScript(t, dense, 1)
	straight.Run(total)
	want := actedFrom(ref, cut)
	requireHeard(t, ref)

	first, devs := scaleScript(t, dense, 1)
	first.Run(cut)
	st, err := first.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.NapUntil != nil || st.NapStart != nil {
		t.Fatal("dense capture carries nap vectors")
	}
	for _, d := range devs {
		if d.slots+d.accrued != cut {
			t.Fatalf("device %d accounts for %d slots after a capture at slot %d", d.id, d.slots+d.accrued, cut)
		}
	}
	first.Run(total - cut)
	if got := actedFrom(devs, cut); got != want {
		t.Fatalf("captured run diverged from the straight run\n got:\n%s\nwant:\n%s", got, want)
	}

	second, devs := scaleScript(t, dense, 1)
	if err := second.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	second.Run(total - cut)
	if got := actedFrom(devs, cut); got != want {
		t.Fatalf("resumed run diverged from the straight run\n got:\n%s\nwant:\n%s", got, want)
	}

	napping := *st
	napping.NapUntil, napping.NapStart = make([]int64, len(st.Failed)), make([]int64, len(st.Failed))
	third, _ := scaleScript(t, dense, 1)
	if err := third.RestoreState(&napping); err == nil {
		t.Fatal("dense network accepted a sparse state with nap vectors")
	}
}

// TestScaleStandingScanRousedByDelivery: a standing scanner is part of the
// medium and not of the loop. Energy it cannot decode — a collision, a
// unicast for someone else — reaches the engine trace but not the device; a
// frame delivered to it rouses it in the slot itself, settled in the scan
// class up to the slot before; and the report it is then handed is this
// slot's, not what was left from its last visit.
func TestScaleStandingScanRousedByDelivery(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		beacon := func(src topology.NodeID) *Frame { return &Frame{Kind: KindEB, Src: src, Dst: topology.Broadcast} }
		script := func(frames map[ASN]*Frame) func(ASN) RadioOp {
			return func(asn ASN) RadioOp {
				if f := frames[asn]; f != nil {
					return RadioOp{Kind: OpTx, Channel: 15, Frame: f, NeedAck: !f.Broadcast()}
				}
				return Sleep()
			}
		}
		// Devices 1 and 3 are equidistant from the scanner 2: together they
		// collide there. Device 1 also sends device 4's unicast past it.
		left := &napDevice{id: 1, plan: script(map[ASN]*Frame{5: beacon(1), 8: {Kind: KindData, Src: 1, Dst: 4}, 20: beacon(1)})}
		right := &napDevice{id: 3, plan: script(map[ASN]*Frame{5: beacon(3), 12: beacon(3), 20: beacon(3), 30: beacon(3)})}
		scanner := &napDevice{id: 2}
		scanner.plan, scanner.wake = dwellScan(50)
		scanner.stand = scanner.plan
		nw := m.net(t, 4, seed, left, right, scanner)
		nw.FastFadingSigmaDB = 0 // exact symmetry: the collisions are certain
		collisions := map[ASN]bool{}
		nw.Trace = func(ev TraceEvent) {
			if ev.Kind == TraceCollision && ev.Dst == 2 {
				collisions[ev.ASN] = true
			}
		}
		nw.Run(51)

		want := []napEvent{
			{Kind: "plan", ASN: 0}, {Kind: "end", ASN: 0},
			{Kind: "end", ASN: 12, From: 3}, // roused: no Plan, the standing op is the plan
			{Kind: "end", ASN: 30, From: 3}, // and no noise left over from slot 20
			{Kind: "plan", ASN: 50, Accrued: 11 + 17 + 19}, {Kind: "end", ASN: 50},
		}
		if !reflect.DeepEqual(scanner.log, want) {
			t.Fatalf("the scanner was called\n %+v\nwant\n %+v", scanner.log, want)
		}
		if !collisions[5] || !collisions[20] || len(collisions) != 2 {
			t.Fatalf("collisions traced at the standing scanner in %v, want slots 5 and 20", collisions)
		}
		if scanner.scanned != 47 || scanner.slots+scanner.accrued != nw.ASN() {
			t.Fatalf("settled %d slots as scans and %d in all by slot %d", scanner.scanned, scanner.slots+scanner.accrued, nw.ASN())
		}
		if ls := nw.LoopStats(); ls.Rouses != 2 || ls.PlanScan != 2 {
			t.Fatalf("%+v, want two rouses and the two scans planned at the dwell boundaries", ls)
		}
	})
}

// visited hides a device's Napper side: the engine visits it in every slot,
// which is what a standing scan must be indistinguishable from.
type visited struct{ d *napDevice }

func (v visited) ID() topology.NodeID             { return v.d.id }
func (v visited) Plan(asn ASN) RadioOp            { return v.d.Plan(asn) }
func (v visited) EndSlot(asn ASN, rep SlotReport) { v.d.EndSlot(asn, rep) }

// TestScaleStandingScanEquivalentToVisited: scanners standing through their
// dwells — a single-channel one whose clock drifts, a wide-band one that
// fails and is restored mid-dwell — hear what the same scanners hear when
// visited in every slot, and everyone else does too: same deliveries, same
// engine trace, collisions at the scanners included, in the same order. On
// the dense medium that order is the sequential generator's, which draws for
// a standing scanner where it would have drawn for the awake one.
func TestScaleStandingScanEquivalentToVisited(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, seed int64) {
		run := func(stand bool) (string, int64) {
			var devs []*napDevice
			var attach []Device
			for i := 1; i <= 7; i++ {
				d := &napDevice{id: topology.NodeID(i)}
				switch i {
				case 2:
					d.plan, d.wake = dwellScan(20)
				case 5:
					d.plan = func(ASN) RadioOp { return RadioOp{Kind: OpScan} }
					d.wake = func(asn ASN) ASN { return ((asn+1)/30 + 1) * 30 }
				case 7:
					d.plan = rxPlan(15)
				default: // beacons on two channels, colliding now and then
					f := &Frame{Kind: KindEB, Src: d.id, Dst: topology.Broadcast}
					period := ASN(i + 2)
					d.plan = func(asn ASN) RadioOp {
						if asn%period != 0 {
							return Sleep()
						}
						return RadioOp{Kind: OpTx, Channel: phy.Channel(15 + 5*(asn/period%2)), Frame: f}
					}
					d.wake = everyN(period)
				}
				devs = append(devs, d)
				if (i == 2 || i == 5) && stand {
					d.stand = d.plan
				}
				if (i == 2 || i == 5) && !stand {
					attach = append(attach, visited{d})
				} else {
					attach = append(attach, d)
				}
			}
			nw := m.build(pairTopology(t, 7), seed+2)
			for _, d := range attach {
				if err := nw.Attach(d); err != nil {
					t.Fatal(err)
				}
			}
			out := ""
			nw.Trace = func(ev TraceEvent) {
				out += fmt.Sprintf("trace %d kind %d %d->%d ch %d rss %x\n", ev.ASN, ev.Kind, ev.Src, ev.Dst, ev.Channel, math.Float64bits(ev.RSS))
			}
			nw.SetClockDrift(2, 0.5, 9)
			nw.At(41, func() { nw.Fail(5) })
			nw.At(52, func() { nw.Restore(5) })
			nw.At(107, func() { nw.SetClockDrift(2, 0, 0) })
			nw.Run(200)
			for _, d := range devs {
				for _, ev := range d.log {
					if ev.From != 0 {
						out += fmt.Sprintf("%d heard %d in %d\n", d.id, ev.From, ev.ASN)
					}
				}
			}
			nw.SettleNaps()
			for _, d := range devs {
				want := int64(200)
				if d.id == 5 {
					want -= 52 - 41 // down
				}
				if d.slots+d.accrued != want {
					t.Fatalf("device %d accounts for %d slots, want %d", d.id, d.slots+d.accrued, want)
				}
			}
			return out, nw.LoopStats().Rouses
		}
		want, _ := run(false)
		got, rouses := run(true)
		if got != want {
			t.Fatalf("standing scanners change the run\n got:\n%s\nwant:\n%s", got, want)
		}
		if rouses == 0 || !strings.Contains(want, "2 heard") || !strings.Contains(want, "5 heard") || !strings.Contains(want, "kind 3 0->2") {
			t.Fatalf("%d rouses; the scanners must hear frames and collisions for the comparison to mean anything:\n%s", rouses, want)
		}
	})
}

// TestScaleSlotLoopZeroAllocs is TestSlotLoopZeroAllocs with devices
// napping, waking, transmitting and listening: the awake set, the wake wheel
// and the resolve scratch all run out of reused memory once warm, on both
// media.
func TestScaleSlotLoopZeroAllocs(t *testing.T) {
	for _, m := range media {
		nw, devs := scaleScript(t, m, 1)
		for _, d := range devs {
			d.mute = true
		}
		// Warm the wake wheel and scratch buffers past any growth. A bucket
		// grows on first touch and then to the most wakes its slots file: the
		// script repeats every 24 slots and the wheel every wakeHorizon, so
		// after their least common multiple — 3*wakeHorizon, the horizon
		// being a power of two — every bucket has met its largest load. One
		// lap more covers the start, before every device naps on its period.
		nw.Run(4 * wakeHorizon)
		allocs := testing.AllocsPerRun(300, func() { nw.Step() })
		if allocs != 0 {
			t.Fatalf("steady-state %s slot loop allocates %.1f objects/slot, want 0", m.name, allocs)
		}
	}
}

// TestConcurrentNetworkBuilds: the campaign runner's workers and the
// server's jobs each build their own network over their own copy of a named
// testbed; the one thing their shadowing draws share is detrand's seeding
// tables, written once at package init. Under -race this keeps it so.
func TestConcurrentNetworkBuilds(t *testing.T) {
	nets := make([]*Network, 2)
	var wg sync.WaitGroup
	wg.Add(len(nets))
	for g := range nets {
		go func(g int) {
			defer wg.Done()
			nets[g] = NewNetwork(topology.TestbedA(), 1)
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(nets[0].rss, nets[1].rss) {
		t.Fatal("two concurrent builds of testbed-a read different RSS matrices")
	}
}
