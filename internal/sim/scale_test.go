package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/digs-net/digs/internal/topology"
)

// medium is one of the two media of the one slot loop. Everything the loop
// does about naps — skipping calls, settling, waking, failing, jumping — is
// medium-independent, so the nap tests run on both.
type medium struct {
	name   string
	shards []int // the shard counts worth running
	build  func(topo *topology.Topology, seed int64, shards int) *Network
}

var media = []medium{
	{"dense", []int{1}, func(topo *topology.Topology, seed int64, _ int) *Network { return NewNetwork(topo, seed) }},
	{"sparse", []int{1, 2}, NewScaleNetwork},
}

// onMedia runs the test once per medium and shard count.
func onMedia(t *testing.T, test func(t *testing.T, m medium, shards int)) {
	for _, m := range media {
		for _, shards := range m.shards {
			t.Run(fmt.Sprintf("%s-%d", m.name, shards), func(t *testing.T) { test(t, m, shards) })
		}
	}
}

// napEvent is one entry of a napDevice's log: a Plan or EndSlot call with
// its slot, the sleep accrued since the previous Plan, and what was heard.
type napEvent struct {
	Kind    string // "plan" or "end"
	ASN     ASN
	Accrued int64           // plan: slots reported by AccrueSleep since the last Plan
	From    topology.NodeID // end: source of the received frame, 0 if none
}

// napDevice is a scripted Napper: plan and wake are pure functions of the
// slot, so a fresh instance continues exactly where a captured one stopped.
type napDevice struct {
	id   topology.NodeID
	plan func(asn ASN) RadioOp
	wake func(asn ASN) ASN // NextWake; nil never naps
	log  []napEvent
	mute bool // keep counters only (the allocation test)

	accrued int64 // AccrueSleep total
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
	ev := napEvent{Kind: "end", ASN: asn}
	if rep.Received != nil {
		ev.From = rep.Received.Src
	}
	d.log = append(d.log, ev)
}

func (d *napDevice) NextWake(asn ASN) ASN {
	if d.wake == nil {
		return asn + 1
	}
	return d.wake(asn)
}

func (d *napDevice) AccrueSleep(k int64) {
	d.accrued += k
	d.pending += k
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

func (m medium) net(t *testing.T, nodes, shards int, devs ...*napDevice) *Network {
	t.Helper()
	nw := m.build(pairTopology(t, nodes), 1, shards)
	for _, d := range devs {
		if err := nw.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// TestScaleNapSkipsDeviceCalls: inside a nap the engine calls neither Plan
// nor EndSlot, and at the wake AccrueSleep reports exactly the skipped
// slots, so executed plus accrued slots always add up to the clock.
func TestScaleNapSkipsDeviceCalls(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, shards int) {
		d := &napDevice{id: 1, wake: everyN(10)}
		nw := m.net(t, 2, shards, d)
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
	onMedia(t, func(t *testing.T, m medium, shards int) {
		d := &napDevice{id: 1, wake: everyN(100)}
		other := &napDevice{id: 2} // never naps: keeps the loop stepping
		nw := m.net(t, 2, shards, d, other)
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
	onMedia(t, func(t *testing.T, m medium, shards int) {
		d := &napDevice{id: 1, wake: everyN(100)}
		other := &napDevice{id: 2}
		nw := m.net(t, 2, shards, d, other)
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
	onMedia(t, func(t *testing.T, m medium, shards int) {
		a := &napDevice{id: 1, wake: everyN(100)}
		b := &napDevice{id: 2, wake: everyN(70)}
		nw := m.net(t, 2, shards, a, b)
		var fired []ASN
		at := func(asn ASN) { nw.At(asn, func() { fired = append(fired, nw.ASN()) }) }
		at(50)
		at(130)

		// The engine brackets the two device phases of every slot it
		// executes; a jump executes none.
		executed := 0
		nw.SetParallelNotify(func(on bool) {
			if on {
				executed++
			}
		})
		nw.Run(130)
		if nw.ASN() != 130 {
			t.Fatalf("Run(130) stopped at slot %d", nw.ASN())
		}
		if !reflect.DeepEqual(fired, []ASN{50}) {
			t.Fatalf("events fired at %v, want [50]: slot 130 is the next run's", fired)
		}
		if executed != 2*4 {
			t.Fatalf("executed %d slots up to 130, want 4 (0, the event's 50, 70, 100)", executed/2)
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
		executed = 0
		nw.Run(500)
		if got := a.planned(); got[len(got)-1] != 150 {
			t.Fatalf("stale entry woke device 1: planned in %v", got)
		}
		if executed != 2*7 {
			t.Fatalf("executed %d slots from 151 to 651, want device 2's 7 wakes (210, 280, ... 630)", executed/2)
		}

		// RunUntil's predicate may watch the clock, so it never jumps.
		executed = 0
		if ran, ok := nw.RunUntil(40, func() bool { return nw.ASN() >= 660 }); ran != 9 || !ok {
			t.Fatalf("RunUntil over a stretch of naps ran %d slots (fired %v), want 9", ran, ok)
		}
		if executed != 2*9 {
			t.Fatalf("RunUntil executed %d of its 9 slots", executed/2)
		}
	})
}

// TestScaleNappingTransmitterNotHeardAgain: a device that naps right after
// transmitting has no plan in the following slots; its neighbours — who on
// the sparse medium find transmitters by scanning their rows — must not hear
// the old frame again.
func TestScaleNappingTransmitterNotHeardAgain(t *testing.T) {
	onMedia(t, func(t *testing.T, m medium, shards int) {
		frame := &Frame{Kind: KindEB, Src: 2, Dst: topology.Broadcast}
		tx := &napDevice{id: 2, plan: txPlan(frame, 15, false), wake: everyN(40)}
		rx := &napDevice{id: 1, plan: rxPlan(15)} // listens in every slot
		nw := m.net(t, 2, shards, tx, rx)
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

// scaleScript is a six-device line in which even IDs beacon and odd IDs
// listen, each on its own wake period, so that naps, wakes and receptions
// interleave across any shard boundary. Every device keeps the Napper
// promise: outside its wake slots it would plan sleep.
func scaleScript(t *testing.T, m medium, shards int) (*Network, []*napDevice) {
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
	return m.net(t, 6, shards, devs...), devs
}

// logsFrom renders every call the devices saw from slot `from` on.
func logsFrom(devs []*napDevice, from ASN) string {
	out := ""
	for _, d := range devs {
		for _, ev := range d.log {
			if ev.ASN >= from {
				out += fmt.Sprintf("%d:%+v\n", d.id, ev)
			}
		}
	}
	return out
}

// actedFrom renders what the devices of a scaleScript did and heard from
// slot `from` on: their EndSlot calls in the slots they act in. The Plan
// calls a device woken early answers with sleep are the engine's business.
func actedFrom(devs []*napDevice, from ASN) string {
	out := ""
	for _, d := range devs {
		for _, ev := range d.log {
			if ev.Kind == "end" && ev.ASN >= from && ev.ASN%ASN(2+int(d.id)%3) == 0 {
				out += fmt.Sprintf("%d:%+v\n", d.id, ev)
			}
		}
	}
	return out
}

func requireHeard(t *testing.T, devs []*napDevice) {
	t.Helper()
	for _, d := range devs {
		for _, ev := range d.log {
			if ev.From != 0 {
				return
			}
		}
	}
	t.Fatal("script exchanges no frame: the comparison would be vacuous")
}

// TestScaleNapStateAcrossShardCounts: a sparse run captured mid-nap and
// restored into a network with a different shard count — whose awake sets
// and wake queues are rebuilt from the nap vectors alone — continues exactly
// like the run that never stopped, for every pair of shard counts.
func TestScaleNapStateAcrossShardCounts(t *testing.T) {
	const cut, total = 37, 120
	sparse := media[1]
	straight, ref := scaleScript(t, sparse, 1)
	straight.Run(total)
	want := logsFrom(ref, cut)
	requireHeard(t, ref)

	for _, before := range []int{1, 2, 3} {
		first, _ := scaleScript(t, sparse, before)
		first.Run(cut)
		st, err := first.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if st.NapUntil == nil {
			t.Fatal("nobody napping at the cut: the restore would have nothing to rebuild")
		}
		for _, after := range []int{1, 2, 3, 6} {
			second, devs := scaleScript(t, sparse, after)
			if err := second.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			second.Run(total - cut)
			if got := logsFrom(devs, cut); got != want {
				t.Fatalf("captured on %d shards, resumed on %d: diverged from the straight run\n got:\n%s\nwant:\n%s",
					before, after, got, want)
			}
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

	sparse, _ := scaleScript(t, media[1], 1)
	sparse.Run(cut)
	napping, err := sparse.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	third, _ := scaleScript(t, dense, 1)
	if err := third.RestoreState(napping); err == nil {
		t.Fatal("dense network accepted a sparse state with nap vectors")
	}
}

// TestScaleSlotLoopZeroAllocs is TestSlotLoopZeroAllocs with devices
// napping, waking, transmitting and listening: the awake set, the wake queue
// and the resolve scratch all run out of reused memory once warm, on both
// media.
func TestScaleSlotLoopZeroAllocs(t *testing.T) {
	for _, m := range media {
		nw, devs := scaleScript(t, m, 1)
		for _, d := range devs {
			d.mute = true
		}
		nw.Run(200) // warm the wake queue and scratch buffers past any growth
		allocs := testing.AllocsPerRun(300, func() { nw.Step() })
		if allocs != 0 {
			t.Fatalf("steady-state %s slot loop allocates %.1f objects/slot, want 0", m.name, allocs)
		}
	}
}

// TestConcurrentNetworkBuilds: the campaign runner's workers and the
// server's jobs each build their own network over their own copy of a named
// testbed, whose shadowing draws come from one process-wide memo; under
// -race this is that memo's test at the layer that pays for it.
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
