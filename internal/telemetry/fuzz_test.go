package telemetry

import (
	"bytes"
	"testing"
)

// FuzzScanJSONL hammers the versioned JSONL reader with arbitrary bytes:
// corrupt or truncated streams must come back as errors, never panics,
// and any stream Scan accepts must survive a re-encode/re-scan round trip
// unchanged. When the accepted stream also carries the exact canonical
// header, MergeJSONL must splice it without corrupting it.
func FuzzScanJSONL(f *testing.F) {
	// Seed with a real export plus the classic trouble spots: empty input,
	// a bare header, a header cut mid-line, a truncated event line, a
	// non-JSON line and a wrong-version header.
	var valid bytes.Buffer
	sink := NewJSONL(&valid)
	for _, ev := range goldenEvents() {
		sink.Record(ev)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(append(HeaderLine(), '\n'))
	f.Add(HeaderLine()[:len(HeaderLine())/2])
	f.Add([]byte(string(HeaderLine()) + "\n" + `{"asn":12,"ev":"tx","nod`))
	f.Add([]byte(string(HeaderLine()) + "\n" + "not json at all\n"))
	f.Add([]byte(`{"schema":"digs-trace","version":1}` + "\n" + `{"asn":1,"ev":"gen"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var events []Event
		if err := Scan(bytes.NewReader(data), func(ev Event) error {
			events = append(events, ev)
			return nil
		}); err != nil {
			return // rejected is fine; panicking is not
		}

		// Accepted: re-encoding the decoded events and scanning again must
		// yield the same events (the canonical encoder inverts the reader).
		var re bytes.Buffer
		out := NewJSONL(&re)
		for _, ev := range events {
			out.Record(ev)
		}
		if err := out.Flush(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var again []Event
		if err := Scan(bytes.NewReader(re.Bytes()), func(ev Event) error {
			again = append(again, ev)
			return nil
		}); err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip lost events: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d round-trips to %+v, want %+v", i, again[i], events[i])
			}
		}

		// Merging the canonical stream with the raw part must either reject
		// the part (non-canonical header) or produce a stream Scan accepts.
		var merged bytes.Buffer
		if err := MergeJSONL(&merged, re.Bytes(), data); err == nil {
			n := 0
			if err := Scan(bytes.NewReader(merged.Bytes()), func(Event) error {
				n++
				return nil
			}); err != nil {
				t.Fatalf("merge of two accepted parts does not scan: %v", err)
			}
			if n != 2*len(events) {
				t.Fatalf("merged stream has %d events, want %d", n, 2*len(events))
			}
		}
	})
}
