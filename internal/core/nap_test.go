package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// plainDevice hides every optional interface of the device it wraps: the
// engine sees a sim.Device and nothing else, so it cannot put it to sleep
// and calls Plan and EndSlot in every slot.
type plainDevice struct{ d sim.Device }

func (p plainDevice) ID() topology.NodeID                   { return p.d.ID() }
func (p plainDevice) Plan(asn sim.ASN) sim.RadioOp          { return p.d.Plan(asn) }
func (p plainDevice) EndSlot(asn sim.ASN, r sim.SlotReport) { p.d.EndSlot(asn, r) }

// napRun forms a small generated deployment on the sparse engine with real
// mac.Node + core.Stack devices, carries flows over it, and returns the
// delivery ledger, the settled per-node MAC counters (energy as bits) and
// how often the watchdog healed. With nap false every device is attached
// behind plainDevice and steps through every slot.
func napRun(t *testing.T, nap, monitor bool) (ledger, stats string, repairs int) {
	t.Helper()
	p, _, err := topology.ParseGenSpec("gen-field-60-3")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	nw := sim.NewScaleNetwork(topo, seed)
	cfg := ScaledConfig(topo.NumAPs, topo.N())
	net := &Network{Nodes: make([]*mac.Node, topo.N()+1), Stacks: make([]*Stack, topo.N()+1)}
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		s, err := NewStack(id, topo.IsAP(id), cfg, rand.New(detrand.New(seed*7919+int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		node := mac.NewNode(id, topo.IsAP(id), s, mac.DefaultConfig())
		var dev sim.Device = node
		if !nap {
			dev = plainDevice{node}
		}
		if err := nw.Attach(dev); err != nil {
			t.Fatal(err)
		}
		net.Nodes[i], net.Stacks[i] = node, s
	}

	// The run starts cold, so most of formation is unsynchronised nodes
	// standing on their scans. One of them scans on a drifting clock until
	// well after it joins, and one is down for part of a dwell. lagging
	// reports whether a node's accounting is behind the clock: the sign that
	// the engine is not visiting it.
	const drifter, crasher, rebooted, desynced = 17, 39, 25, 44
	down := map[int]int64{crasher: 1290 - 1130} // slots a failed node is not accounted for
	lagging := func(id int) bool {
		at := nw.ASN()
		if id == crasher && at < 1290 {
			at = min(at, 1130)
		} else {
			at -= down[id]
		}
		return net.Nodes[id].Stats().Slots < at
	}
	requireScanning := func(id int, why string) {
		if synced, _ := net.Nodes[id].Synced(); synced || lagging(id) != nap {
			t.Errorf("node %d %s at slot %d: synchronised %v, napping %v (naps enabled: %v)", id, why, nw.ASN(), synced, lagging(id), nap)
		}
	}
	nw.SetClockDrift(drifter, 0.4, 11)
	nw.At(1130, func() { requireScanning(crasher, "about to fail mid-dwell"); nw.Fail(crasher) })
	nw.At(1290, func() { nw.Restore(crasher) })
	nw.At(1293, func() { requireScanning(crasher, "restored mid-dwell") })
	nw.At(9000, func() { requireScanning(drifter, "drifting") })
	nw.At(12000, func() { nw.SetClockDrift(drifter, 0, 0) })

	target := topo.N() * 9 / 10
	if _, ok := nw.RunUntil(sim.SlotsFor(10*time.Minute), func() bool { return net.JoinedCount() >= target }); !ok {
		t.Fatalf("only %d/%d nodes joined", net.JoinedCount(), topo.N())
	}

	// A synchronised node reboots with state loss (the watchdog's heal,
	// called by hand so that the run without the monitor has one too): it
	// must come back scanning, and with naps standing on that scan.
	nw.At(nw.ASN()+700, func() {
		if synced, _ := net.Nodes[rebooted].Synced(); !synced {
			t.Errorf("node %d is not synchronised before its reboot", rebooted)
		}
		net.Healer(nw)(rebooted, nw.ASN())
	})
	nw.At(nw.ASN()+703, func() { requireScanning(rebooted, "rebooted with state loss") })

	// A synchronised node's clock drifts out of the guard time for most of
	// the window: the monitor flags it desynchronised once it has heard
	// nothing for DefaultDesyncGuard slots, and the watchdog reboots it, so
	// the heal path is part of the comparison.
	nw.At(nw.ASN()+500, func() {
		if synced, _ := net.Nodes[desynced].Synced(); !synced {
			t.Errorf("node %d is not synchronised before its clock drifts", desynced)
		}
		nw.SetClockDrift(desynced, 1.0, 13)
	})
	nw.At(nw.ASN()+5500, func() { nw.SetClockDrift(desynced, 0, 0) })

	var mon *invariant.Monitor
	if monitor {
		mon = invariant.New(invariant.Config{Heal: net.Healer(nw)})
		net.SetTracer(mon)
		invariant.Attach(nw, mon, net.Prober(nw))
	}

	net.OnDeliver(func(asn sim.ASN, f *sim.Frame) {
		ledger += fmt.Sprintf("flow %d seq %d from %d at %d\n", f.FlowID, f.Seq, f.Origin, asn)
	})
	fset, err := flows.RandomSet(topo, 8, 2*time.Second, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	flows.Schedule(nw, fset, 15, func(f flows.Flow, seq uint16, asn sim.ASN) {
		nw.Wake(f.Source)
		_ = net.Nodes[f.Source].InjectData(&sim.Frame{Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: asn})
	})
	nw.Run(sim.SlotsFor(60 * time.Second))

	nw.SettleNaps()
	for i := 1; i <= topo.N(); i++ {
		st := net.Nodes[i].Stats()
		if st.Slots != nw.ASN()-down[i] {
			t.Fatalf("node %d accounts for %d slots at slot %d", i, st.Slots, nw.ASN())
		}
		bits := math.Float64bits(st.EnergyJoules)
		st.EnergyJoules = 0
		best, second := net.Stacks[i].Router().Parents()
		stats += fmt.Sprintf("%d: energy %016x parents %d/%d %+v\n", i, bits, best, second, st)
	}
	if mon != nil {
		repairs = mon.Report().Repairs
	}
	return ledger, stats, repairs
}

// TestNapEquivalentToNoNap is the proof obligation behind napping with a
// queued packet (and behind napping at all): skipping a node's Plan/EndSlot
// calls between its cells, or through the dwell of its scan, changes nothing
// a run can observe. The same deployment runs from cold once with every
// device stepped through every slot and once with naps; deliveries (slot
// included), every MAC counter, the routing outcome
// and the energy totals, compared as bits, must be equal — with a scanner on
// a drifting clock, one that crashes and recovers mid-dwell, a
// synchronised node rebooted into scanning and one whose clock drifts out
// of the guard time, and also with the invariant monitor polling and its
// watchdog rebooting nodes mid-run.
func TestNapEquivalentToNoNap(t *testing.T) {
	for _, monitor := range []bool{false, true} {
		wantLedger, wantStats, wantRepairs := napRun(t, false, monitor)
		if wantLedger == "" {
			t.Fatal("nothing delivered: the comparison would be vacuous")
		}
		if monitor && wantRepairs == 0 {
			t.Fatal("the watchdog never healed a node: the heal path is not covered")
		}
		ledger, stats, repairs := napRun(t, true, monitor)
		if ledger != wantLedger {
			t.Errorf("monitor %v: deliveries differ with naps\n got:\n%s\nwant:\n%s", monitor, ledger, wantLedger)
		}
		if stats != wantStats {
			t.Errorf("monitor %v: settled MAC counters differ with naps\n got:\n%s\nwant:\n%s", monitor, stats, wantStats)
		}
		if repairs != wantRepairs {
			t.Errorf("monitor %v: %d watchdog repairs with naps, %d without", monitor, repairs, wantRepairs)
		}
	}
}
