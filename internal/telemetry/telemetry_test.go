package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenEvents is a synthetic packet lifecycle exercising every event type
// and every serialized field, including negative RSS, job stamps and a
// typed drop.
func goldenEvents() []Event {
	return []Event{
		{ASN: 100, Type: EvGenerated, Node: 9, Origin: 9, Flow: 3, Seq: 21, Kind: kindData, Born: 100},
		{ASN: 100, Type: EvEnqueued, Node: 9, Origin: 9, Flow: 3, Seq: 21, Kind: kindData, Queue: 1, Born: 100},
		{ASN: 113, Type: EvTxAttempt, Node: 9, Peer: 4, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Attempt: 1, Channel: 17, ChOff: 2, Acked: false, Queue: 1, Born: 100},
		{ASN: 120, Type: EvCollision, Node: 4, Channel: 17},
		{ASN: 264, Type: EvTxAttempt, Node: 9, Peer: 4, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Attempt: 2, Channel: 22, ChOff: 2, Acked: true, Queue: 1, Born: 100},
		{ASN: 264, Type: EvReceived, Node: 4, Peer: 9, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Hop: 1, RSS: -71.25, Born: 100},
		{ASN: 264, Type: EvEnqueued, Node: 4, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Hop: 1, Queue: 2, Born: 100},
		{ASN: 300, Type: EvRouteChange, Node: 4, Peer: 2, Peer2: 7},
		{ASN: 415, Type: EvTxAttempt, Node: 4, Peer: 1, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Attempt: 1, Channel: 11, ChOff: 5, Acked: true, Queue: 2, Born: 100},
		{ASN: 415, Type: EvReceived, Node: 1, Peer: 4, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Hop: 2, RSS: -58.5, Born: 100},
		{ASN: 415, Type: EvDelivered, Node: 1, Peer: 4, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Hop: 2, Born: 100},
		{ASN: 500, Type: EvGenerated, Node: 8, Origin: 8, Flow: 2, Seq: 5, Kind: kindData, Born: 500},
		{ASN: 500, Type: EvDropped, Node: 8, Origin: 8, Flow: 2, Seq: 5, Kind: kindData,
			Reason: ReasonQueueFull, Queue: 16, Born: 500},
		{ASN: 600, Type: EvDropped, Node: 4, Peer: 9, Origin: 9, Flow: 3, Seq: 21, Kind: kindData,
			Reason: ReasonDuplicate, Hop: 1, Born: 100, Job: 1},
		{ASN: 700, Type: EvFaultStart, Node: 4, Flow: 0, Seq: 1},
		{ASN: 700, Type: EvGenerated, Node: 9, Origin: 9, Flow: 3, Seq: 22, Kind: kindData, Born: 700},
		{ASN: 720, Type: EvDropped, Node: 9, Origin: 9, Flow: 3, Seq: 22, Kind: kindData,
			Reason: ReasonEvicted, Queue: 16, Born: 700},
		{ASN: 900, Type: EvFaultEnd, Node: 4, Flow: 0, Seq: 1},
		{ASN: 1000, Type: EvViolation, Node: 7, Peer: 3, Code: 1},
		{ASN: 1100, Type: EvRepair, Node: 7, Attempt: 2, Code: 4},
		{ASN: 1400, Type: EvReconverged, Flow: 0, Seq: 1},
	}
}

// TestKindDataMatchesSim pins the aggregator's wire-schema mirror of the
// data frame kind to the engine's value: the two must never drift.
func TestKindDataMatchesSim(t *testing.T) {
	if kindData != uint8(sim.KindData) {
		t.Fatalf("telemetry.kindData = %d, sim.KindData = %d; the v1 wire schema pins %d",
			kindData, uint8(sim.KindData), kindData)
	}
}

// TestJSONLGolden pins the v1 JSONL export byte for byte: field order,
// number formatting, event and reason names. Any diff here is a schema
// change and must come with a SchemaVersion bump.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, ev := range goldenEvents() {
		sink.Record(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run JSONLGolden -update-golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL export drifted from the v1 golden schema.\ngot:\n%s\nwant:\n%s\n"+
			"If this change is intentional, bump SchemaVersion and regenerate with -update-golden.",
			buf.Bytes(), want)
	}
}

// TestScanRoundTrip decodes the exported stream back into events and
// re-encodes them, proving Scan inverts the writer exactly.
func TestScanRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, ev := range goldenEvents() {
		sink.Record(ev)
	}

	var decoded []Event
	if err := Scan(bytes.NewReader(buf.Bytes()), func(ev Event) error {
		decoded = append(decoded, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := goldenEvents()
	if len(decoded) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(want))
	}
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("event %d round-trips to %+v, want %+v", i, decoded[i], want[i])
		}
	}

	var re bytes.Buffer
	sink2 := NewJSONL(&re)
	for _, ev := range decoded {
		sink2.Record(ev)
	}
	if !bytes.Equal(buf.Bytes(), re.Bytes()) {
		t.Fatal("re-encoded stream differs from the original")
	}
}

// TestScanRejectsBadStreams covers the reader's validation: wrong schema,
// wrong version, unknown event names and the empty stream.
func TestScanRejectsBadStreams(t *testing.T) {
	head := string(HeaderLine()) + "\n"
	cases := map[string]string{
		"wrong schema":  `{"schema":"other","version":1}` + "\n",
		"wrong version": `{"schema":"digs-trace","version":99}` + "\n",
		"no header":     "",
		"unknown event": head + `{"asn":1,"ev":"warp"}` + "\n",
	}
	for name, in := range cases {
		if err := Scan(strings.NewReader(in), func(Event) error { return nil }); err == nil {
			t.Errorf("%s: Scan accepted the stream", name)
		}
	}
}

// TestMergeJSONL merges job-stamped parts and checks the result is one
// valid stream whose events keep their job indices and part order.
func TestMergeJSONL(t *testing.T) {
	var p0, p1 bytes.Buffer
	s0 := WithJob(NewJSONL(&p0), 0)
	s1 := WithJob(NewJSONL(&p1), 1)
	s0.Record(Event{ASN: 10, Type: EvGenerated, Node: 2})
	s1.Record(Event{ASN: 5, Type: EvGenerated, Node: 3})
	s1.Record(Event{ASN: 6, Type: EvDelivered, Node: 1})

	var merged bytes.Buffer
	if err := MergeJSONL(&merged, p0.Bytes(), p1.Bytes()); err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := Scan(bytes.NewReader(merged.Bytes()), func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("merged stream has %d events, want 3", len(got))
	}
	if got[0].Job != 0 || got[1].Job != 1 || got[2].Job != 1 {
		t.Fatalf("job stamps = %d,%d,%d, want 0,1,1", got[0].Job, got[1].Job, got[2].Job)
	}
	if got[0].ASN != 10 || got[1].ASN != 5 {
		t.Fatal("merge reordered parts; they must concatenate in job order")
	}

	// A part without a header must be rejected, not silently corrupted.
	if err := MergeJSONL(&bytes.Buffer{}, []byte("{\"asn\":1}\n")); err == nil {
		t.Fatal("MergeJSONL accepted a headerless part")
	}
}

// TestAggregateFoldsLifecycle replays the synthetic lifecycle through the
// aggregating sink and checks every summary it feeds the CLI.
func TestAggregateFoldsLifecycle(t *testing.T) {
	a := NewAggregate(151)
	for _, ev := range goldenEvents() {
		a.Record(ev)
	}

	// Three packets generated (jobs 0), one delivered.
	if a.Generated() != 3 || a.Delivered() != 1 {
		t.Fatalf("generated/delivered = %d/%d, want 3/1", a.Generated(), a.Delivered())
	}
	if pdr := a.PDR(); pdr != 1.0/3.0 {
		t.Fatalf("PDR = %v, want 1/3", pdr)
	}
	if got := a.FlowPDR(0, 3); got != 0.5 {
		t.Fatalf("flow 3 PDR = %v, want 0.5", got)
	}
	if got := a.FlowPDR(0, 2); got != 0.0 {
		t.Fatalf("flow 2 PDR = %v, want 0.0", got)
	}

	// The delivered span crossed 2 hops with latency 315 slots.
	lat := a.HopLatencies()
	if len(lat) != 1 || lat[0].Hops != 2 || lat[0].MedianASN != 315 {
		t.Fatalf("hop latencies = %+v, want one row: 2 hops, 315 slots", lat)
	}

	// Drop attribution: queue-full at node 8, the job-1 duplicate at node
	// 4, and the drop-oldest eviction at node 9.
	totals := a.DropTotals()
	if totals[ReasonQueueFull] != 1 || totals[ReasonDuplicate] != 1 || totals[ReasonEvicted] != 1 {
		t.Fatalf("drop totals = %v, want 1 queue-full, 1 duplicate, 1 queue-evict", totals)
	}

	// Recovery markers: one fault activation and one reconvergence.
	if a.Faults() != 1 || a.Reconverged() != 1 {
		t.Fatalf("faults/reconverged = %d/%d, want 1/1", a.Faults(), a.Reconverged())
	}

	// Cell folding: ASN 113 and 264 are offsets 113 and 113 (264-151) on
	// channel offset 2 — the same cell, 2 tx, 1 acked.
	cells := a.HottestCells(1)
	if len(cells) != 1 {
		t.Fatalf("no cells folded")
	}
	c := cells[0]
	if c.Cell.Offset != 113 || c.Cell.ChOff != 2 || c.Tx != 2 || c.Acked != 1 || c.Owner != 9 {
		t.Fatalf("hottest cell = %+v, want offset 113 choff 2: 2 tx, 1 acked, owner 9", c)
	}

	if a.RouteChanges() != 1 {
		t.Fatalf("route changes = %d, want 1", a.RouteChanges())
	}
	hist := a.QueueHist()
	if hist[1] != 1 || hist[2] != 1 {
		t.Fatalf("queue histogram = %v, want one enqueue at depth 1 and one at 2", hist)
	}
	// Jobs 0 and 1 both appear.
	if a.Jobs() != 2 {
		t.Fatalf("jobs = %d, want 2", a.Jobs())
	}
}

// TestMultiFansOut checks the fan-out helper skips nils and unwraps a
// single live sink.
func TestMultiFansOut(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of nils should be nil")
	}
	a := NewAggregate(1)
	if got := Multi(nil, a); got != Tracer(a) {
		t.Fatal("Multi with one live sink should unwrap it")
	}
	a2 := NewAggregate(1)
	m := Multi(a, a2)
	m.Record(Event{ASN: 1})
	if a.Events() != 1 || a2.Events() != 1 {
		t.Fatalf("fan-out recorded %d/%d events, want 1/1", a.Events(), a2.Events())
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
}
