package scenario

import (
	"context"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/sim"
)

// TestLoopCountsPinned pins what the slot loop does while a deployment forms
// to 0.9 N from cold, as counted by the loop itself: the counts are a pure
// function of the run, so they resolve what wall clocks on a shared host
// cannot. Formation is where the unsynchronised majority lives: before
// scanners could stand through their dwells every one of them was planned in
// every slot (testbed-a/digs 87 807 scans of 96 990 plans, gen-plant-300-1
// 2 720 186 of 2 830 476, gen-plant-1000-3 20 716 565 of 21 344 359) and
// every listener walked its own row (2 780 177 and 21 100 237 rows on the
// two plants); the tx and rx plans and the hearings are what they were then,
// to the unit. Sleep plans fell again when a node with nothing queued
// stopped waking for its own transmit cells (testbed-a/digs 3 972, sdn
// 4 196, gen-plant-300-1 41 385, gen-plant-1000-3 197 807), with every other
// count and every result unchanged. FastForwarded counts the slots Form's
// RunUntil jumps with no device awake (it asked the join count before every
// slot until the jump came to it, with every other count unchanged). A
// change that moves a count here changed either the simulation (the result
// pins say which) or the loop's cost model.
func TestLoopCountsPinned(t *testing.T) {
	for _, c := range []struct {
		topology, protocol string
		slots              int64
		want               sim.LoopStats
		long               bool
	}{
		{"testbed-a", "digs", 4795, sim.LoopStats{PlanSleep: 1242, PlanTx: 1084, PlanRx: 4127, PlanScan: 206,
			Rouses: 43, Hearings: 10682, FastForwarded: 2566}, false},
		{"testbed-a", "sdn", 7957, sim.LoopStats{PlanSleep: 3116, PlanTx: 1737, PlanRx: 30822, PlanScan: 285,
			Rouses: 46, Hearings: 10726, FastForwarded: 1838}, false},
		{"gen-plant-300-1", "digs", 14430, sim.LoopStats{PlanSleep: 10393, PlanTx: 8914, PlanRx: 59991, PlanScan: 5597,
			Rouses: 290, Rows: 8914, Hearings: 48230, FastForwarded: 4120}, false},
		{"gen-plant-1000-3", "digs", 32196, sim.LoopStats{PlanSleep: 64579, PlanTx: 46315, PlanRx: 383672, PlanScan: 41932,
			Rouses: 992, Rows: 46315, Hearings: 295486, FastForwarded: 6599}, true},
	} {
		if c.long && testing.Short() {
			continue
		}
		for _, shards := range []int{1, 3} {
			sc, err := Build(Params{TopologyName: c.topology, Protocol: c.protocol, Seed: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			f, err := sc.Form(context.Background(), nil, 0.9, 30*time.Minute, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := sc.NW.LoopStats(); f.Slots != c.slots || got != c.want {
				t.Errorf("%s/%s with Shards %d formed in %d slots (want %d):\n got %v\nwant %v",
					c.topology, c.protocol, shards, f.Slots, c.slots, got, c.want)
			}
			if !sc.NW.ScaleMode() || c.long {
				break // one Shards value is enough here; the 300-node plant shows the counts ignore it
			}
		}
	}
}
