package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/digs-net/digs/internal/topology"
)

// heapWakes is the wake queue the wheel replaced, kept as its oracle: one
// binary heap of (wake slot, node ID) per shard, with the parent commit's
// drain, earliest-wake and rebuild rules.
type heapWakes []slotHeap[struct{}]

func (o heapWakes) file(s int, id topology.NodeID, w ASN) {
	o[s].push(slotEntry[struct{}]{asn: w, ord: uint64(id)})
}

// due pops every entry at or before asn and returns the devices of the live
// ones in ascending ID: what the parent's wakeDue woke.
func (o heapWakes) due(s int, asn ASN, napUntil []ASN) []topology.NodeID {
	var out []topology.NodeID
	for len(o[s]) > 0 && o[s][0].asn <= asn {
		e := o[s].pop()
		if id := topology.NodeID(e.ord); napUntil[id] == e.asn && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// earliest is the parent's earliestWake.
func (o heapWakes) earliest(napUntil []ASN) (w ASN, ok bool) {
	for s := range o {
		for len(o[s]) > 0 && napUntil[o[s][0].ord] != o[s][0].asn {
			o[s].pop()
		}
		if len(o[s]) > 0 && (!ok || o[s][0].asn < w) {
			w, ok = o[s][0].asn, true
		}
	}
	return w, ok
}

// rebuild is the parent's rebuildShards, queue side.
func (o heapWakes) rebuild(nw *Network) {
	for s := range o {
		o[s] = o[s][:0]
	}
	for i := 1; i <= nw.numDevs; i++ {
		if w := nw.napUntil[i]; w != 0 && nw.devices[i] != nil && !nw.failed[i] {
			o.file(nw.ShardOf(topology.NodeID(i)), topology.NodeID(i), w)
		}
	}
}

// TestWakeWheelMatchesHeap drives the wheel and the heap it replaced with
// the same random sequences — naps filed inside and beyond the horizon,
// naps overtaken by Wake, Fail and a rouse (and often followed by another),
// drains, fast-forwards to the earliest wake or short of it, and rebuilds
// from the nap vectors — on one to three shards. Every slot, both must name
// the same earliest wake and wake the same devices.
func TestWakeWheelMatchesHeap(t *testing.T) {
	const n = 60
	var woken, far, overtaken, jumps, rebuilds int
	for seed := int64(1); seed <= 6; seed++ {
		for shards := 1; shards <= 3; shards++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(shards)))
			nw := NewScaleNetwork(pairTopology(t, n), seed, shards)
			for i := 1; i <= n; i++ {
				if err := nw.Attach(&napDevice{id: topology.NodeID(i), mute: true}); err != nil {
					t.Fatal(err)
				}
			}
			oracle := make(heapWakes, shards)
			napLen := make([]ASN, n+1) // length of each device's current nap
			pick := func() topology.NodeID { return topology.NodeID(1 + rng.Intn(n)) }
			napping := func(id topology.NodeID) bool { return nw.napUntil[id] != 0 }

			for step := 0; step < 3000; step++ {
				asn := nw.asn
				where := fmt.Sprintf("seed %d, %d shards, slot %d", seed, shards, asn)
				w, ok := nw.earliestWake()
				if ow, ook := oracle.earliest(nw.napUntil); w != ow || ok != ook {
					t.Fatalf("%s: earliest wake %d %v, the heap says %d %v", where, w, ok, ow, ook)
				}
				if ok && rng.Intn(6) == 0 { // Run's fast-forward: to the wake, or to its own target short of it
					if target := min(w, asn+ASN(rng.Intn(300))); target > asn {
						nw.asn, asn = target, target
						jumps++
						where = fmt.Sprintf("seed %d, %d shards, slot %d", seed, shards, asn)
					}
				}

				// Drain: the devices whose nap ends now.
				for s, sh := range nw.sh {
					want := oracle.due(s, asn, nw.napUntil)
					var before []topology.NodeID
					for id := sh.lo; id < sh.hi; id++ {
						if napping(topology.NodeID(id)) {
							before = append(before, topology.NodeID(id))
						}
					}
					nw.wakeDue(sh, asn)
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
						t.Fatalf("%s, shard %d: woke %v, the heap wakes %v", where, s, got, want)
					}
				}

				// The slot's nap decisions and rouses, then changes between slots.
				for k := rng.Intn(6); k > 0; k-- {
					id := pick()
					sh := nw.sh[nw.ShardOf(id)]
					switch {
					case napping(id) && rng.Intn(2) == 0: // a frame rouses its standing scan
						nw.endNap(sh, id, asn)
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
						nw.nap(sh, id, asn, asn+length, op)
						oracle.file(nw.ShardOf(id), id, asn+length)
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
				if rng.Intn(200) == 0 { // a restore rebuilds the shards from the vectors
					nw.rebuildShards()
					oracle.rebuild(nw)
					rebuilds++
				}
			}
		}
	}
	t.Logf("%d wakes (%d of naps beyond the horizon), %d naps overtaken, %d fast-forwards, %d rebuilds",
		woken, far, overtaken, jumps, rebuilds)
	if woken == 0 || far == 0 || overtaken == 0 || jumps == 0 || rebuilds == 0 {
		t.Fatal("the comparison is vacuous in one of its cases")
	}
}
