package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/digs-net/digs/internal/topology"
)

// heapWakes is the wake queue the wheel replaced, kept as its oracle: one
// binary heap of (wake slot, node ID), with the drain, earliest-wake and
// rebuild rules the heap had.
type heapWakes struct{ q slotHeap[struct{}] }

func (o *heapWakes) file(id topology.NodeID, w ASN) {
	o.q.push(slotEntry[struct{}]{asn: w, ord: uint64(id)})
}

// due pops every entry at or before asn and returns the devices of the live
// ones in ascending ID: what the heap's wakeDue woke.
func (o *heapWakes) due(asn ASN, napUntil []ASN) []topology.NodeID {
	var out []topology.NodeID
	for len(o.q) > 0 && o.q[0].asn <= asn {
		e := o.q.pop()
		if id := topology.NodeID(e.ord); napUntil[id] == e.asn && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// earliest is the heap's earliest live wake.
func (o *heapWakes) earliest(napUntil []ASN) (w ASN, ok bool) {
	for len(o.q) > 0 && napUntil[o.q[0].ord] != o.q[0].asn {
		o.q.pop()
	}
	if len(o.q) > 0 {
		return o.q[0].asn, true
	}
	return 0, false
}

// rebuild is the heap's rebuildAwake, queue side.
func (o *heapWakes) rebuild(nw *Network) {
	o.q = o.q[:0]
	for i := 1; i <= nw.numDevs; i++ {
		if w := nw.napUntil[i]; w != 0 && nw.devices[i] != nil && !nw.failed[i] {
			o.file(topology.NodeID(i), w)
		}
	}
}

// TestWakeWheelMatchesHeap drives the wheel and the heap it replaced with
// the same random sequences — naps filed inside and beyond the horizon,
// naps overtaken by Wake, Fail and a rouse (and often followed by another),
// drains, fast-forwards to the earliest wake or short of it, and rebuilds
// from the nap vectors. Every slot, both must name the same earliest wake
// and wake the same devices.
func TestWakeWheelMatchesHeap(t *testing.T) {
	const n = 60
	var woken, far, overtaken, jumps, rebuilds int
	for seed := int64(1); seed <= 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := NewScaleNetwork(pairTopology(t, n), seed)
		for i := 1; i <= n; i++ {
			if err := nw.Attach(&napDevice{id: topology.NodeID(i), mute: true}); err != nil {
				t.Fatal(err)
			}
		}
		oracle := &heapWakes{}
		napLen := make([]ASN, n+1) // length of each device's current nap
		pick := func() topology.NodeID { return topology.NodeID(1 + rng.Intn(n)) }
		napping := func(id topology.NodeID) bool { return nw.napUntil[id] != 0 }

		for step := 0; step < 3000; step++ {
			asn := nw.asn
			where := fmt.Sprintf("seed %d, slot %d", seed, asn)
			w, ok := nw.wakes.earliest(asn, nw.napUntil)
			if ow, ook := oracle.earliest(nw.napUntil); w != ow || ok != ook {
				t.Fatalf("%s: earliest wake %d %v, the heap says %d %v", where, w, ok, ow, ook)
			}
			if ok && rng.Intn(6) == 0 { // Run's fast-forward: to the wake, or to its own target short of it
				if target := min(w, asn+ASN(rng.Intn(300))); target > asn {
					nw.asn, asn = target, target
					jumps++
					where = fmt.Sprintf("seed %d, slot %d", seed, asn)
				}
			}

			// Drain: the devices whose nap ends now.
			want := oracle.due(asn, nw.napUntil)
			var before []topology.NodeID
			for id := topology.NodeID(1); id <= n; id++ {
				if napping(id) {
					before = append(before, id)
				}
			}
			nw.wakeDue(asn)
			var got []topology.NodeID
			for _, id := range before {
				if !napping(id) {
					got = append(got, id)
					woken++
					if napLen[id] >= wakeHorizon {
						far++
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: woke %v, the heap wakes %v", where, got, want)
			}

			// The slot's nap decisions and rouses, then changes between slots.
			for k := rng.Intn(6); k > 0; k-- {
				id := pick()
				switch {
				case napping(id) && rng.Intn(2) == 0: // a frame rouses its standing scan
					nw.endNap(id, asn)
					overtaken++
				case nw.devices[id] != nil && !nw.failed[id] && !napping(id):
					length := ASN(2 + rng.Intn(100))
					if rng.Intn(10) == 0 {
						length = ASN(400 + rng.Intn(200)) // a scan dwell
					}
					op := Sleep()
					if rng.Intn(3) == 0 {
						op = RadioOp{Kind: OpScan, Channel: 15}
					}
					nw.nap(id, asn, asn+length, op)
					oracle.file(id, asn+length)
					napLen[id] = length
				}
			}
			nw.asn++
			switch id := pick(); rng.Intn(12) {
			case 0:
				if napping(id) {
					overtaken++
				}
				nw.Wake(id)
			case 1:
				if napping(id) {
					overtaken++
				}
				nw.Fail(id)
			case 2, 3:
				nw.Restore(id)
			}
			if rng.Intn(200) == 0 { // a restore rebuilds the sets from the vectors
				nw.rebuildAwake()
				oracle.rebuild(nw)
				rebuilds++
			}
		}
	}
	t.Logf("%d wakes (%d of naps beyond the horizon), %d naps overtaken, %d fast-forwards, %d rebuilds",
		woken, far, overtaken, jumps, rebuilds)
	if woken == 0 || far == 0 || overtaken == 0 || jumps == 0 || rebuilds == 0 {
		t.Fatal("the comparison is vacuous in one of its cases")
	}
}
