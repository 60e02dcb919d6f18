package scenario

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/chaos"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/stack"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

func stateBytes(st stack.State) []byte {
	if st == nil {
		return nil // whart: no mutable state beyond its MAC node
	}
	var w wire.Writer
	st.Code(wire.Encoder(&w))
	return w.Buf
}

// takeBytes is the scenario's snapshot at the current slot, encoded.
func takeBytes(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	snap, err := sc.Take("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNextActiveContract is the Napper contract, per stack, stated on the
// stack itself: "skipping the Assignment calls before NextActive is
// unobservable". A testbed-a run — formation, flows, a jammer, a crash with
// state loss, a fade, a drifting clock — is stopped at random slots. For
// every synchronised node the engine's own question is asked (NextWake after
// the last executed slot), the node's stack is cloned through its
// CaptureState/RestoreState into a twin build that never runs, and the clone
// is walked through every slot the engine would skip: each Assignment must be
// RoleSleep, or the node's own RoleTxData while its MAC queue is empty (the
// MAC plans sleep there without asking the stack), and afterwards the
// clone's state must still be byte-equal to the original's — timers, caches
// and counters included.
func TestNextActiveContract(t *testing.T) {
	for _, proto := range RegisteredStacks() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			p := Params{TopologyName: "testbed-a", Protocol: proto, Seed: 4, Period: 2 * time.Second}
			sc, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			nw, n := sc.NW, sc.Params.Topology.N()

			nw.At(3000, func() {
				if _, err := chaos.Apply(nw, chaos.Fig8JammerPlan(sc.Params.Topology, 4), nil, chaos.Hooks{}); err != nil {
					t.Error(err)
				}
				_, err := chaos.Apply(nw, denseCrashPlan(4), nil, chaos.Hooks{
					Reboot: sc.Reboot,
				})
				if err != nil {
					t.Error(err)
				}
				fset := flows.FixedSet(sc.Params.Topology.SuggestedSources, p.Period)
				flows.Schedule(nw, fset, 60, func(f flows.Flow, seq uint16, _ sim.ASN) {
					_ = sc.Inject(f.Source, f.ID, seq)
				})
			})

			rng := rand.New(rand.NewSource(11))
			windows, skipped := 0, int64(0)
			for nw.ASN() < 20000 {
				nw.Run(1 + rng.Int63n(211))
				last := nw.ASN() - 1
				states, err := sc.Bundle.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				if states[1] != nil { // whart has no state to clone: its twin is its clone
					if err := twin.Bundle.RestoreState(states); err != nil {
						t.Fatal(err)
					}
				}
				for i := 1; i <= n; i++ {
					if synced, _ := sc.MACNode(i).Synced(); !synced {
						continue
					}
					w, _ := sc.MACNode(i).NextWake(last)
					idle := sc.MACNode(i).QueueLen() == 0
					for slot := last + 1; slot < w; slot++ {
						if a := twin.Schedule(i, slot); a.Role != mac.RoleSleep && !(idle && a.Role == mac.RoleTxData) {
							t.Fatalf("node %d after slot %d: NextWake %d, queue %d, but slot %d is %+v",
								i, last, w, sc.MACNode(i).QueueLen(), slot, a)
						}
					}
					if w > last+1 {
						windows++
						skipped += w - last - 1
					}
				}
				after, err := twin.Bundle.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= n; i++ {
					if !bytes.Equal(stateBytes(after[i]), stateBytes(states[i])) {
						t.Fatalf("node %d after slot %d: walking its clone through the skipped slots changed its state", i, last)
					}
				}
			}
			if windows == 0 {
				t.Fatal("no node ever offered to nap: the contract was never exercised")
			}
			t.Logf("%d nap windows, %d skipped slots walked", windows, skipped)
		})
	}
}

// TestDenseNapCaptureInvisible: on the dense medium neither napping nor a
// capture taken mid-nap is observable in snapshot bytes. Four runs of every
// stack must end in the same bytes: straight through; captured at the cut
// (which settles and ends every nap) and continued; resumed from that
// capture in a fresh build; and a reference in which no device ever naps —
// every device is woken before every slot, which is what hiding Napper
// behind a sim.Device-only wrapper amounts to. The capture at the cut must
// equal the reference's at the same slot: a dense snapshot carries no nap
// vectors and no lagging counter.
func TestDenseNapCaptureInvisible(t *testing.T) {
	const cut, rest = 5300, 2900
	for _, proto := range RegisteredStacks() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			build := func() *Scenario {
				sc, err := Build(Params{TopologyName: testTopo, Protocol: proto, Seed: 6, Period: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			take := func(sc *Scenario) []byte { return takeBytes(t, sc) }
			sleepless := func(sc *Scenario, slots int) {
				for ; slots > 0; slots-- {
					for id := 1; id <= sc.Params.Topology.N(); id++ {
						sc.NW.Wake(topology.NodeID(id))
					}
					sc.NW.Step()
				}
			}

			straight := build()
			straight.NW.Run(cut + rest)

			captured := build()
			captured.NW.Run(cut)
			lagging := 0
			for i := 1; i <= captured.Params.Topology.N(); i++ {
				if captured.MACNode(i).Stats().Slots < captured.NW.ASN() {
					lagging++
				}
			}
			if lagging == 0 {
				t.Fatal("nobody napping at the cut: the capture would have nothing to settle")
			}
			atCut := take(captured)
			captured.NW.Run(rest)

			decoded, err := snapshot.Decode(atCut)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Net.NapUntil != nil {
				t.Fatal("dense snapshot carries nap vectors")
			}
			resumed := build()
			if err := resumed.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			resumed.NW.Run(rest)

			reference := build()
			sleepless(reference, cut)
			if !bytes.Equal(atCut, take(reference)) {
				t.Error("capture mid-nap differs from the never-napping run's at the same slot")
			}
			sleepless(reference, rest)

			want := take(reference)
			for name, sc := range map[string]*Scenario{"straight": straight, "captured": captured, "resumed": resumed} {
				if !bytes.Equal(take(sc), want) {
					t.Errorf("%s run ends in different snapshot bytes than the never-napping run", name)
				}
			}
		})
	}
}

// TestStandingScanCaptureInvisible: a capture taken mid-formation — most
// nodes unsynchronised, standing on the scan of a dwell that is half over —
// is unobservable on both media. A capture ends the standing scans, so the
// snapshot at the cut carries none of them (no nap window, every scanner's
// counters settled up to the slot) and a restore asks no device what it would
// scan; and the straight run, the captured run continued, and the run resumed
// from the capture end in the same snapshot bytes, which are those of the run
// in which no device ever naps: a capture ends every nap on both media.
func TestStandingScanCaptureInvisible(t *testing.T) {
	const cut, rest = 730, 2600 // dwells end every 500 slots
	for _, topo := range []string{testTopo, "gen-field-60-3"} {
		for _, proto := range RegisteredStacks() {
			topo, proto := topo, proto
			t.Run(topo+"/"+proto, func(t *testing.T) {
				t.Parallel()
				build := func() *Scenario {
					sc, err := Build(Params{TopologyName: topo, Protocol: proto, Seed: 6, Period: time.Second})
					if err != nil {
						t.Fatal(err)
					}
					return sc
				}
				take := func(sc *Scenario) []byte { return takeBytes(t, sc) }

				straight := build()
				straight.NW.Run(cut + rest)

				captured := build()
				captured.NW.Run(cut)
				n := captured.Params.Topology.N()
				var standing []int
				for i := 1; i <= n; i++ {
					if synced, _ := captured.MACNode(i).Synced(); !synced && captured.MACNode(i).Stats().Slots < cut {
						standing = append(standing, i)
					}
				}
				if len(standing) == 0 {
					t.Fatal("no scanner standing at the cut: the capture would have no standing scan to end")
				}
				atCut := take(captured)
				captured.NW.Run(rest)

				decoded, err := snapshot.Decode(atCut)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range standing {
					if decoded.MACs[i].Stats.Slots != cut {
						t.Errorf("scanner %d is captured with %d of %d slots accounted for", i, decoded.MACs[i].Stats.Slots, cut)
					}
					if decoded.Net.NapUntil != nil && decoded.Net.NapUntil[i] != 0 {
						t.Errorf("scanner %d is captured standing until slot %d", i, decoded.Net.NapUntil[i])
					}
				}
				resumed := build()
				if err := resumed.Restore(decoded); err != nil {
					t.Fatal(err)
				}
				resumed.NW.Run(rest)

				reference := build()
				for slots := cut + rest; slots > 0; slots-- {
					for id := 1; id <= n; id++ {
						reference.NW.Wake(topology.NodeID(id))
					}
					reference.NW.Step()
					if slots == rest+1 && !bytes.Equal(atCut, take(reference)) {
						t.Error("capture mid-dwell differs from the never-napping run's at the same slot")
					}
				}
				want := take(reference)
				for name, sc := range map[string]*Scenario{"straight": straight, "captured": captured, "resumed": resumed} {
					if !bytes.Equal(take(sc), want) {
						t.Errorf("%s run ends in different snapshot bytes", name)
					}
				}
			})
		}
	}
}
