package server

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// readAll drains an EventReader into "event=data" pairs and the error that
// ended it.
func readAll(r io.Reader) ([]string, error) {
	er := NewEventReader(r)
	var got []string
	for {
		event, data, err := er.Next()
		if err != nil {
			return got, err
		}
		got = append(got, event+"="+data)
	}
}

// TestEventReader pins the three rules of the one SSE reader: an
// unterminated final line is never returned, CRLF line endings read like
// LF, and a blank line ends an event, so the next bare data line is a
// message again.
func TestEventReader(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []string
	}{
		{"unterminated-last-line", "data: l0\n\ndata: l1", []string{"message=l0"}},
		{"unterminated-event", "data: l0\n\nevent: done\ndata: {\"job", []string{"message=l0"}},
		{"crlf", "data: l0\r\n\r\nevent: dropped\r\ndata: 3\r\n\r\n", []string{"message=l0", "dropped=3"}},
		{"blank-line-resets", "event: failover\ndata: b0\n\ndata: l1\n\n", []string{"failover=b0", "message=l1"}},
		{"event-without-blank-line", "event: dropped\ndata: 2\ndata: 3\n\n", []string{"dropped=2", "dropped=3"}},
		{"comments-and-unknown-fields", ": keep-alive\nid: 7\ndata: l0\n\n", []string{"message=l0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readAll(strings.NewReader(tc.in))
			if !errors.Is(err, io.EOF) {
				t.Fatalf("ended with %v, want io.EOF", err)
			}
			if strings.Join(got, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("read %q, want %q", got, tc.want)
			}
		})
	}
}

// FuzzEventReader feeds the reader arbitrary bytes, as a backend in
// another process may send, and checks that it never panics, never
// returns an event or data holding a newline, and reads every event
// WriteEvent can write back as written, whatever came before it.
func FuzzEventReader(f *testing.F) {
	f.Add([]byte("data: l0\n\nevent: dropped\ndata: 3\n\n"), "done", `{"job_id":"g-000001"}`)
	f.Add([]byte("event: failover\r\ndata: b0\r\n"), "message", "l1")
	f.Add([]byte("data: cut mid-li"), "dropped", "-1")
	f.Fuzz(func(t *testing.T, prefix []byte, event, data string) {
		got, _ := readAll(bytes.NewReader(prefix))
		for _, ev := range got {
			if strings.Contains(ev, "\n") {
				t.Fatalf("returned %q, which holds a newline", ev)
			}
		}
		if strings.ContainsAny(event+data, "\r\n") {
			return // WriteEvent cannot write these
		}
		var buf bytes.Buffer
		if err := WriteEvent(&buf, event, data); err != nil {
			t.Fatal(err)
		}
		// A complete prefix stream, then the written event.
		stream := append(append([]byte(nil), prefix...), "\n\n"...)
		got, _ = readAll(io.MultiReader(bytes.NewReader(stream), &buf))
		if len(got) == 0 || got[len(got)-1] != event+"="+data {
			t.Fatalf("WriteEvent(%q, %q) read back as %q", event, data, got)
		}
	})
}
