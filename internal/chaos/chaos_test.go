package chaos

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

func lineTopology(t *testing.T, n int) *topology.Topology {
	t.Helper()
	topo := &topology.Topology{Name: "line", NumAPs: 1, TxPowerDBm: -15}
	topo.Nodes = append(topo.Nodes, topology.Node{})
	for i := 1; i <= n; i++ {
		topo.Nodes = append(topo.Nodes, topology.Node{
			ID: topology.NodeID(i), X: float64(i) * 5, IsAP: i == 1,
		})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Name: "demo",
		Seed: 7,
		Entries: []Entry{
			{Kind: KindNodeCrash, Targets: []topology.NodeID{4}, Start: Duration(10 * time.Second),
				Duration: Duration(2 * time.Minute), LoseState: true},
			{Kind: KindJamWiFi, Targets: []topology.NodeID{2}, WiFiChannel: 6,
				Start: Duration(30 * time.Second), Duration: Duration(time.Minute),
				Period: Duration(5 * time.Minute), Repeat: 3},
			{Kind: KindClockDrift, Targets: []topology.NodeID{3}, DriftPPM: 300,
				Start: Duration(time.Minute), Duration: Duration(3 * time.Minute)},
		},
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	// Durations serialise as human-readable strings.
	if !bytes.Contains(blob, []byte(`"2m0s"`)) {
		t.Fatalf("durations not strings: %s", blob)
	}
	got, err := Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Seed != p.Seed || len(got.Entries) != len(p.Entries) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if !reflect.DeepEqual(got.Entries, p.Entries) {
		t.Fatalf("entries: got %+v want %+v", got.Entries, p.Entries)
	}
}

func TestLoadNumericSecondsAndUnknownFields(t *testing.T) {
	p, err := Load(strings.NewReader(
		`{"name":"n","seed":1,"entries":[{"kind":"node-crash","targets":[2],"start":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(p.Entries[0].Start); got != 5*time.Second {
		t.Fatalf("numeric start = %v, want 5s", got)
	}
	if _, err := Load(strings.NewReader(`{"name":"n","entrys":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateRejectsBadEntries(t *testing.T) {
	topo := lineTopology(t, 4)
	bad := []Entry{
		{Kind: KindNodeCrash},                                                               // no targets
		{Kind: KindNodeCrash, Targets: []topology.NodeID{9}},                                // out of range
		{Kind: KindJamWiFi, Targets: []topology.NodeID{2}, WiFiChannel: 3},                  // bad channel
		{Kind: KindLinkFade, Targets: []topology.NodeID{2}},                                 // no fade_db
		{Kind: KindClockDrift, Targets: []topology.NodeID{2}},                               // no ppm
		{Kind: KindAPFailover, Targets: []topology.NodeID{2}},                               // not an AP
		{Kind: Kind("volcano"), Targets: []topology.NodeID{2}},                              // unknown kind
		{Kind: KindPartition, Targets: []topology.NodeID{1, 2, 3, 4}},                       // whole network
		{Kind: KindNodeCrash, Targets: []topology.NodeID{2}, Period: Duration(time.Second)}, // period without repeat
		{Kind: KindNodeCrash, Targets: []topology.NodeID{2}, Period: Duration(time.Second),
			Repeat: 2, Duration: Duration(2 * time.Second)}, // duration >= period
	}
	for i, e := range bad {
		p := &Plan{Name: "bad", Entries: []Entry{e}}
		if err := p.Validate(topo); err == nil {
			t.Errorf("bad entry %d accepted: %+v", i, e)
		}
	}
	good := &Plan{Name: "good", Entries: []Entry{
		{Kind: KindAPFailover, Duration: Duration(time.Second)}, // default target: first AP
		{Kind: KindPartition, Targets: []topology.NodeID{3, 4}},
	}}
	if err := good.Validate(topo); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

// collectTracer records events for assertions.
type collectTracer struct{ events []telemetry.Event }

func (c *collectTracer) Record(ev telemetry.Event) { c.events = append(c.events, ev) }
func (c *collectTracer) Flush() error              { return nil }

func (c *collectTracer) ofType(t telemetry.EventType) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range c.events {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

func TestCrashLifecycleAndReboot(t *testing.T) {
	topo := lineTopology(t, 3)
	nw := sim.NewNetwork(topo, 1)
	sink := &collectTracer{}
	var reboots []topology.NodeID
	var rebootASN sim.ASN
	var rebootLose bool
	plan := &Plan{Name: "crash", Seed: 3, Entries: []Entry{{
		Kind:      KindNodeCrash,
		Targets:   []topology.NodeID{2},
		Start:     Duration(time.Second),     // slot 100
		Duration:  Duration(2 * time.Second), // ends slot 300
		LoseState: true,
	}}}
	inj, err := Apply(nw, plan, sink, Hooks{
		Reboot: func(id topology.NodeID, asn sim.ASN, lose bool) {
			reboots = append(reboots, id)
			rebootASN, rebootLose = asn, lose
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sample the failed flag just inside and outside the window.
	var during, after bool
	nw.At(150, func() { during = nw.Failed(2) })
	nw.At(350, func() { after = nw.Failed(2) })
	nw.Run(2000)

	if !during || after {
		t.Fatalf("failed flag: during=%v after=%v, want true/false", during, after)
	}
	if len(reboots) != 1 || reboots[0] != 2 || rebootASN != 300 || !rebootLose {
		t.Fatalf("reboot hook: ids=%v asn=%d lose=%v", reboots, rebootASN, rebootLose)
	}
	starts := sink.ofType(telemetry.EvFaultStart)
	ends := sink.ofType(telemetry.EvFaultEnd)
	recon := sink.ofType(telemetry.EvReconverged)
	if len(starts) != 1 || starts[0].ASN != 100 || starts[0].Node != 2 ||
		starts[0].Flow != 0 || starts[0].Seq != 0 {
		t.Fatalf("fault_start = %+v", starts)
	}
	if len(ends) != 1 || ends[0].ASN != 300 {
		t.Fatalf("fault_end = %+v", ends)
	}
	// Quiet window: no route changes at all, so reconverged fires at the
	// first poll reaching start+quietSlots (polls align to the start).
	if len(recon) != 1 || recon[0].ASN != 100+quietSlots ||
		recon[0].Flow != 0 || recon[0].Seq != 0 {
		t.Fatalf("reconverged = %+v", recon)
	}
	_ = inj
}

func TestReconvergenceWaitsForRouteQuiescence(t *testing.T) {
	topo := lineTopology(t, 3)
	nw := sim.NewNetwork(topo, 1)
	sink := &collectTracer{}
	plan := &Plan{Name: "crash", Entries: []Entry{{
		Kind: KindNodeCrash, Targets: []topology.NodeID{2}, Start: Duration(time.Second),
	}}}
	inj, err := Apply(nw, plan, sink, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate route churn at slot 500: the quiet window must restart.
	nw.At(500, func() {
		inj.Record(telemetry.Event{ASN: 500, Type: telemetry.EvRouteChange, Node: 3})
	})
	nw.Run(3000)
	recon := sink.ofType(telemetry.EvReconverged)
	if len(recon) != 1 || recon[0].ASN != 500+quietSlots {
		t.Fatalf("reconverged = %+v, want at %d", recon, 500+quietSlots)
	}
}

func TestConvergedHookGates(t *testing.T) {
	topo := lineTopology(t, 3)
	nw := sim.NewNetwork(topo, 1)
	sink := &collectTracer{}
	plan := &Plan{Name: "crash", Entries: []Entry{{
		Kind: KindNodeCrash, Targets: []topology.NodeID{2},
	}}}
	converged := false
	if _, err := Apply(nw, plan, sink, Hooks{Converged: func() bool { return converged }}); err != nil {
		t.Fatal(err)
	}
	nw.At(2500, func() { converged = true })
	nw.Run(4000)
	recon := sink.ofType(telemetry.EvReconverged)
	if len(recon) != 1 || recon[0].ASN < 2500 {
		t.Fatalf("reconverged = %+v, want one event at/after 2500", recon)
	}
}

func TestPeriodicOccurrences(t *testing.T) {
	topo := lineTopology(t, 3)
	nw := sim.NewNetwork(topo, 1)
	sink := &collectTracer{}
	plan := &Plan{Name: "periodic", Entries: []Entry{{
		Kind: KindNodeCrash, Targets: []topology.NodeID{3},
		Start:    Duration(time.Second),
		Duration: Duration(time.Second),
		Period:   Duration(10 * time.Second),
		Repeat:   3,
	}}}
	if _, err := Apply(nw, plan, sink, Hooks{}); err != nil {
		t.Fatal(err)
	}
	nw.Run(4000)
	starts := sink.ofType(telemetry.EvFaultStart)
	if len(starts) != 3 {
		t.Fatalf("got %d fault_starts, want 3", len(starts))
	}
	for k, ev := range starts {
		wantASN := int64(100 + k*1000)
		if ev.ASN != wantASN || int(ev.Seq) != k {
			t.Fatalf("occurrence %d = %+v, want ASN %d", k, ev, wantASN)
		}
	}
	if ends := sink.ofType(telemetry.EvFaultEnd); len(ends) != 3 {
		t.Fatalf("got %d fault_ends, want 3", len(ends))
	}
}

func TestRecoveryReport(t *testing.T) {
	r := NewRecovery()
	feed := []telemetry.Event{
		{ASN: 50, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 0, Born: 50},
		{ASN: 80, Type: telemetry.EvDelivered, Origin: 5, Flow: 1, Seq: 0, Born: 50},
		{ASN: 100, Type: telemetry.EvFaultStart, Node: 4, Flow: 0, Seq: 0},
		{ASN: 120, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 1, Born: 120},
		{ASN: 150, Type: telemetry.EvDropped, Origin: 5, Flow: 1, Seq: 1,
			Reason: telemetry.ReasonMaxRetries},
		{ASN: 160, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 2, Born: 160},
		{ASN: 170, Type: telemetry.EvDropped, Origin: 6, Flow: 1, Seq: 2,
			Reason: telemetry.ReasonDuplicate}, // duplicates never count
		{ASN: 190, Type: telemetry.EvDelivered, Origin: 5, Flow: 1, Seq: 2, Born: 160},
		{ASN: 300, Type: telemetry.EvFaultEnd, Node: 4, Flow: 0, Seq: 0},
		{ASN: 1400, Type: telemetry.EvReconverged, Flow: 0, Seq: 0},
		// After the repair window: not attributed to the fault.
		{ASN: 1500, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 3, Born: 1500},
	}
	for _, ev := range feed {
		r.Record(ev)
	}
	reps := r.Report()
	if len(reps) != 1 {
		t.Fatalf("got %d fault reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.TTRSlots != 1300 {
		t.Fatalf("TTR = %d, want 1300", rep.TTRSlots)
	}
	if rep.StartASN != 100 || rep.EndASN != 300 || rep.ReconASN != 1400 {
		t.Fatalf("window = %+v", rep.FaultWindow)
	}
	if rep.Generated != 2 || rep.Lost != 1 {
		t.Fatalf("generated/lost = %d/%d, want 2/1", rep.Generated, rep.Lost)
	}
	if rep.Drops[telemetry.ReasonMaxRetries] != 1 || len(rep.Drops) != 1 {
		t.Fatalf("drops = %v", rep.Drops)
	}
	if r.Generated() != 4 || r.Undelivered() != 2 {
		t.Fatalf("totals = %d/%d, want 4 generated, 2 undelivered", r.Generated(), r.Undelivered())
	}
}

// A trace ending mid-fault (no fault_end, no reconverged) must still
// yield a report for the fault: TTR -1, the window clamped to the last
// event seen, and losses split into confirmed drops and in-flight
// packets whose fate the truncated trace cannot tell.
func TestRecoveryReportTruncatedMidFault(t *testing.T) {
	r := NewRecovery()
	feed := []telemetry.Event{
		{ASN: 100, Type: telemetry.EvFaultStart, Node: 4, Flow: 2, Seq: 0},
		{ASN: 120, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 1, Born: 120},
		{ASN: 150, Type: telemetry.EvDropped, Origin: 5, Flow: 1, Seq: 1,
			Reason: telemetry.ReasonMaxRetries},
		{ASN: 160, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 2, Born: 160},
		{ASN: 190, Type: telemetry.EvDelivered, Origin: 5, Flow: 1, Seq: 2, Born: 160},
		{ASN: 200, Type: telemetry.EvViolation, Node: 5, Code: 2},
		{ASN: 220, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 3, Born: 220},
		// Trace ends here: seq 3 is still in flight, the fault never closed.
	}
	for _, ev := range feed {
		r.Record(ev)
	}
	reps := r.Report()
	if len(reps) != 1 {
		t.Fatalf("truncated fault dropped from report: %+v", reps)
	}
	rep := reps[0]
	if !rep.Truncated || rep.TTRSlots != -1 || rep.EndASN != -1 || rep.ReconASN != -1 {
		t.Fatalf("truncation not reported: %+v", rep)
	}
	if rep.Generated != 3 || rep.Lost != 1 || rep.InFlight != 1 {
		t.Fatalf("generated/lost/inflight = %d/%d/%d, want 3/1/1",
			rep.Generated, rep.Lost, rep.InFlight)
	}
	if rep.Drops[telemetry.ReasonMaxRetries] != 1 {
		t.Fatalf("drops = %v", rep.Drops)
	}
	if rep.Violations != 1 {
		t.Fatalf("violations in window = %d, want 1", rep.Violations)
	}
}

// A reconverged fault keeps the original loss semantics: everything
// undelivered in the window counts lost, nothing is in flight.
func TestRecoveryReportClosedWindowUnchanged(t *testing.T) {
	r := NewRecovery()
	feed := []telemetry.Event{
		{ASN: 100, Type: telemetry.EvFaultStart, Node: 4},
		{ASN: 120, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 1, Born: 120},
		{ASN: 300, Type: telemetry.EvFaultEnd, Node: 4},
		{ASN: 400, Type: telemetry.EvReconverged},
		{ASN: 9000, Type: telemetry.EvGenerated, Origin: 5, Flow: 1, Seq: 9, Born: 9000},
	}
	for _, ev := range feed {
		r.Record(ev)
	}
	rep := r.Report()[0]
	if rep.Truncated || rep.InFlight != 0 || rep.Lost != 1 || rep.Generated != 1 {
		t.Fatalf("closed-window semantics changed: %+v", rep)
	}
}

func TestFig8JammerPlan(t *testing.T) {
	topo := topology.TestbedA()
	p := Fig8JammerPlan(topo, 9)
	if err := p.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(topo.SuggestedJammers); len(p.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(p.Entries), want)
	}
	// Every jammer position is both jammed and crashed, permanently.
	for i, at := range topo.SuggestedJammers {
		jam, crash := p.Entries[2*i], p.Entries[2*i+1]
		if jam.Kind != KindJamWiFi || jam.Targets[0] != at || jam.Duration != 0 {
			t.Fatalf("jam entry %d = %+v", i, jam)
		}
		if crash.Kind != KindNodeCrash || crash.Targets[0] != at || crash.Duration != 0 {
			t.Fatalf("crash entry %d = %+v", i, crash)
		}
	}
	// Applying on a fresh network registers without error.
	nw := sim.NewNetwork(topo, 1)
	if _, err := Apply(nw, p, nil, Hooks{}); err != nil {
		t.Fatal(err)
	}
	nw.Run(100)
	for _, at := range topo.SuggestedJammers {
		if !nw.Failed(at) {
			t.Fatalf("jammer position %d not failed", at)
		}
	}
}
