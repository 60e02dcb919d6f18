package whart

import (
	"math/rand"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/topology"
)

func TestComputeGraphRoutesOnTestbedA(t *testing.T) {
	topo := topology.TestbedA()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		if routes.Best[i] == 0 {
			t.Fatalf("device %d has no primary parent", i)
		}
		if routes.Best[i] == topology.NodeID(i) {
			t.Fatalf("device %d is its own parent", i)
		}
		// Parents are strictly closer in ETX distance.
		if routes.DistETX[routes.Best[i]] >= routes.DistETX[i] {
			t.Fatalf("device %d primary parent %d not closer to APs", i, routes.Best[i])
		}
		if s := routes.Second[i]; s != 0 && routes.DistETX[s] >= routes.DistETX[i] {
			t.Fatalf("device %d backup parent %d not closer to APs", i, s)
		}
		if routes.Hops[i] < 1 || routes.Hops[i] > topo.N() {
			t.Fatalf("device %d hop count %d out of range", i, routes.Hops[i])
		}
	}
	// With global knowledge, the central computation should dual-home the
	// overwhelming majority of devices.
	if cov := routes.BackupCoverage(topo); cov < 0.8 {
		t.Fatalf("central backup coverage %.2f, want >= 0.8", cov)
	}
}

func TestRoutesAreLoopFree(t *testing.T) {
	topo := topology.TestbedB()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		seen := map[topology.NodeID]bool{}
		cur := topology.NodeID(i)
		for !topo.IsAP(cur) {
			if seen[cur] {
				t.Fatalf("primary path loop at %d from %d", cur, i)
			}
			seen[cur] = true
			cur = routes.Best[cur]
		}
	}
}

func TestUpdateCycleGrowsWithNetworkSize(t *testing.T) {
	times := make(map[string]time.Duration)
	for _, topo := range []*topology.Topology{
		topology.HalfTestbedA(), topology.TestbedA(),
		topology.HalfTestbedB(), topology.TestbedB(),
	} {
		u, err := UpdateCycle(topo)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		times[topo.Name] = u.Total()
		if u.Collect <= 0 || u.Disseminate <= 0 || u.Compute <= 0 {
			t.Fatalf("%s: empty phase in %+v", topo.Name, u)
		}
	}
	// Figure 3 shape: full testbeds take much longer than half testbeds,
	// and the absolute scale is minutes, not seconds.
	if times["testbed-a"] < 2*times["half-testbed-a"] {
		t.Fatalf("full A (%v) not >= 2x half A (%v)", times["testbed-a"], times["half-testbed-a"])
	}
	if times["testbed-b"] < 2*times["half-testbed-b"] {
		t.Fatalf("full B (%v) not >= 2x half B (%v)", times["testbed-b"], times["half-testbed-b"])
	}
	if times["testbed-a"] < 100*time.Second || times["testbed-a"] > 1500*time.Second {
		t.Fatalf("full A update time %v outside the Figure 3 magnitude", times["testbed-a"])
	}
}

func TestComputeSchedule(t *testing.T) {
	topo := topology.TestbedA()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]Flow, 0, len(topo.SuggestedSources))
	for i, src := range topo.SuggestedSources {
		flows = append(flows, Flow{ID: uint16(i + 1), Source: src, PeriodSlots: 500})
	}
	sf, err := ComputeSchedule(topo, routes, flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Validate(); err != nil {
		t.Fatal(err)
	}
	if sf.Length != 500 {
		t.Fatalf("superframe length %d, want 500", sf.Length)
	}
	// Every flow must have cells, and backup cells must exist for flows
	// whose path nodes have backup parents.
	perFlow := map[uint16]int{}
	backups := 0
	for _, e := range sf.Entries {
		perFlow[e.FlowID]++
		if e.Backup {
			backups++
		}
	}
	for _, f := range flows {
		if perFlow[f.ID] == 0 {
			t.Fatalf("flow %d has no cells", f.ID)
		}
	}
	if backups == 0 {
		t.Fatal("no backup cells allocated")
	}
}

func TestComputeScheduleRejectsBadFlow(t *testing.T) {
	topo := topology.TestbedA()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeSchedule(topo, routes, []Flow{{ID: 1, Source: 3, PeriodSlots: 0}}); err == nil {
		t.Fatal("accepted zero-period flow")
	}
}

func TestSuperframeValidateCatchesDoubleBooking(t *testing.T) {
	sf := &Superframe{Length: 10, Entries: []Entry{
		{Slot: 1, ChannelOffset: 0, Tx: 5, Rx: 6},
		{Slot: 1, ChannelOffset: 1, Tx: 6, Rx: 7}, // node 6 double-booked
	}}
	if err := sf.Validate(); err == nil {
		t.Fatal("validate missed node double-booking")
	}
	sf = &Superframe{Length: 10, Entries: []Entry{
		{Slot: 1, ChannelOffset: 0, Tx: 5, Rx: 6},
		{Slot: 1, ChannelOffset: 0, Tx: 8, Rx: 9}, // channel reuse
	}}
	if err := sf.Validate(); err == nil {
		t.Fatal("validate missed channel reuse")
	}
	sf = &Superframe{Length: 10, Entries: []Entry{{Slot: 12, Tx: 5, Rx: 6}}}
	if err := sf.Validate(); err == nil {
		t.Fatal("validate missed out-of-frame slot")
	}
}

func TestComputeScheduleRandomFlowsProperty(t *testing.T) {
	// For arbitrary flow sets drawn from the topology, the computed
	// superframe always validates and covers every hop of every flow.
	topo := topology.TestbedA()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(10) + 1
		fl := make([]Flow, 0, n)
		used := map[topology.NodeID]bool{}
		for len(fl) < n {
			src := topology.NodeID(topo.NumAPs + 1 + rng.Intn(topo.N()-topo.NumAPs))
			if used[src] {
				continue
			}
			used[src] = true
			fl = append(fl, Flow{
				ID:          uint16(len(fl) + 1),
				Source:      src,
				PeriodSlots: int64(rng.Intn(400)) + 200,
			})
		}
		sf, err := ComputeSchedule(topo, routes, fl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sf.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every flow must have primary cells for each hop of its path.
		for _, f := range fl {
			hops := routes.Hops[f.Source]
			primary := 0
			for _, e := range sf.Entries {
				if e.FlowID == f.ID && !e.Backup {
					primary++
				}
			}
			if primary != 2*hops {
				t.Fatalf("trial %d flow %d: %d primary cells for %d hops, want %d",
					trial, f.ID, primary, hops, 2*hops)
			}
		}
	}
}
