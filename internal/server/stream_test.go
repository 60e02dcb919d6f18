package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/telemetry"
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

// chunkings are the read boundaries every stream is read under: whatever
// each read asks for, one byte per read, and half of what each read asks
// for. A relay that flushes before every read of its backend reads across
// partial reads all the time.
var chunkings = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// TestEventReader pins the three rules of the one SSE reader, under every
// chunking: an unterminated final line is never returned, CRLF line
// endings read like LF, and a blank line ends an event, so the next bare
// data line is a message again. A line longer than the reader's buffer
// reads whole.
func TestEventReader(t *testing.T) {
	long := strings.Repeat("x", 70<<10) // past the reader's 64 KiB buffer
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
		{"longer-than-buffer", "data: " + long + "\n\ndata: l1\n\n", []string{"message=" + long, "message=l1"}},
		{"unterminated-longer-than-buffer", "data: l0\n\ndata: " + long, []string{"message=l0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range chunkings {
				got, err := readAll(c.wrap(strings.NewReader(tc.in)))
				if !errors.Is(err, io.EOF) {
					t.Fatalf("%s: ended with %v, want io.EOF", c.name, err)
				}
				if !slices.Equal(got, tc.want) {
					t.Fatalf("%s: read %.200q, want %.200q", c.name, got, tc.want)
				}
			}
		})
	}
}

// FuzzEventReader feeds the reader arbitrary bytes, as a backend in
// another process may send, and checks that it never panics, never
// returns an event or data holding a newline, reads nothing from the
// bytes after the last newline, returns the same events whatever the
// chunking, and reads every event WriteEvent can write back as written,
// whatever came before it.
func FuzzEventReader(f *testing.F) {
	f.Add([]byte("data: l0\n\nevent: dropped\ndata: 3\n\n"), "done", `{"job_id":"g-000001"}`)
	f.Add([]byte("event: failover\r\ndata: b0\r\n"), "message", "l1")
	f.Add([]byte("data: cut mid-li"), "dropped", "-1")
	f.Fuzz(func(t *testing.T, prefix []byte, event, data string) {
		got, err := readAll(bytes.NewReader(prefix))
		for _, ev := range got {
			if strings.Contains(ev, "\n") {
				t.Fatalf("returned %q, which holds a newline", ev)
			}
		}
		terminated := prefix[:bytes.LastIndexByte(prefix, '\n')+1]
		if upTo, _ := readAll(bytes.NewReader(terminated)); !slices.Equal(upTo, got) {
			t.Fatalf("read %q, but %q up to the last newline", got, upTo)
		}
		for _, c := range chunkings[1:] {
			if again, errAgain := readAll(c.wrap(bytes.NewReader(prefix))); !slices.Equal(again, got) || errAgain != err {
				t.Fatalf("%s: read %q (%v), whole reads %q (%v)", c.name, again, errAgain, got, err)
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
		stream := append(append(append([]byte(nil), prefix...), "\n\n"...), buf.Bytes()...)
		for _, c := range chunkings {
			got, _ := readAll(c.wrap(bytes.NewReader(stream)))
			if len(got) == 0 || got[len(got)-1] != event+"="+data {
				t.Fatalf("%s: WriteEvent(%q, %q) read back as %q", c.name, event, data, got)
			}
		}
	})
}

// evAt is the test's event for logical index i: its ASN names the index,
// and its RSS needs more than an integer to render.
func evAt(i int) telemetry.Event {
	return telemetry.Event{ASN: int64(i), Type: telemetry.EvReceived, Node: 3, Peer: 1, RSS: -71.25 - float64(i%7)/8}
}

// evLine is evAt(i)'s JSONL line, encoded as a telemetry.JSONL trace
// encodes it.
func evLine(i int) string {
	var buf bytes.Buffer
	telemetry.NewJSONL(&buf).Record(evAt(i))
	_, line, _ := strings.Cut(strings.TrimSuffix(buf.String(), "\n"), "\n")
	return line
}

// follow renders the batch Next returns from the cursor from.
func follow(b *Broadcast, from int) (lines []string, end, skipped int, closed bool) {
	var v telemetry.Batch
	skipped, closed, _ = b.Next(&v, from)
	for i := range v.Len() {
		lines = append(lines, string(v.AppendLine(nil, i)))
	}
	return lines, v.End(), skipped, closed
}

// TestBroadcastWriterSemantics covers the SSE fan-out buffer from the
// writer's side: records and notes in one logical order, bounded
// retention that trims notes with records, replay, close, and a record or
// note after Close swallowed.
func TestBroadcastWriterSemantics(t *testing.T) {
	b := NewBroadcast(3)
	b.Note("head")
	b.Record(evAt(1))
	lines, end, skipped, closed := follow(b, 0)
	if fmt.Sprint(lines) != fmt.Sprint([]string{"head", evLine(1)}) || end != 2 || skipped != 0 || closed {
		t.Fatalf("lines %q end=%d skipped=%d closed=%v", lines, end, skipped, closed)
	}
	b.Record(evAt(2))
	b.Record(evAt(3))
	b.Record(evAt(4)) // overflows max=3, drops head and rec 1
	if d := b.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	// The subscriber's cursor (end=2) is exactly at the window start, so
	// no mid-stream gap is reported for it.
	lines, end, skipped, _ = follow(b, end)
	if fmt.Sprint(lines) != fmt.Sprint([]string{evLine(2), evLine(3), evLine(4)}) || skipped != 0 {
		t.Fatalf("after overflow: %q skipped=%d", lines, skipped)
	}
	b.Note("tail")
	b.Close()
	lines, end, _, closed = follow(b, end)
	if !closed || fmt.Sprint(lines) != "[tail]" || end != 6 {
		t.Fatalf("close: %q end=%d closed=%v", lines, end, closed)
	}
	// Entries after close are swallowed, not errors (a late tracer call).
	b.Record(evAt(6))
	b.Note("late")
	if lines, end2, _, _ := follow(b, end); len(lines) != 0 || end2 != end || b.Dropped() != 3 {
		t.Fatalf("after close: %q end=%d dropped=%d", lines, end2, b.Dropped())
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastLiveFollow: a subscriber blocked on the signal channel
// wakes when the writer publishes.
func TestBroadcastLiveFollow(t *testing.T) {
	b := NewBroadcast(0)
	var v telemetry.Batch
	_, _, wait := b.Next(&v, 0)
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Record(evAt(7))
		b.Close()
	}()
	select {
	case <-wait:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never woke")
	}
	lines, _, _, _ := follow(b, v.End())
	if len(lines) != 1 || lines[0] != evLine(7) {
		t.Fatalf("live follow got %q", lines)
	}
}

// TestBroadcastLaggingSubscriberGap: a follower whose cursor has fallen
// behind the retention window learns the exact gap size from Next, both
// at attach (from=0) and mid-stream — not only on initial subscribe.
func TestBroadcastLaggingSubscriberGap(t *testing.T) {
	b := NewBroadcast(2)
	for i := 1; i <= 4; i++ { // window now holds 3,4; first=2
		b.Record(evAt(i))
	}
	lines, end, skipped, _ := follow(b, 0)
	if skipped != 2 || len(lines) != 2 || lines[0] != evLine(3) {
		t.Fatalf("attach: lines %q skipped=%d", lines, skipped)
	}
	// The follower stalls while four more records push the window past
	// its cursor: 5 and 6 fall out before it resumes.
	for i := 5; i <= 8; i++ { // window 7,8; first=6
		b.Record(evAt(i))
	}
	lines, _, skipped, _ = follow(b, end)
	if skipped != 2 || len(lines) != 2 || lines[0] != evLine(7) {
		t.Fatalf("mid-stream: lines %q skipped=%d", lines, skipped)
	}
}

// TestBroadcastPastCapIsConstant: once a job's backlog is full, each new
// record costs O(1) — no window copy — and retention stays exact: the
// window holds exactly the cap, and a replay from 0 reports the rest as
// skipped. (That blocks wholly before the window are released is
// telemetry's TestBacklogPastCapReleasesBlocks.)
func TestBroadcastPastCapIsConstant(t *testing.T) {
	b := NewBroadcast(0)
	for i := range maxStreamLines {
		b.Record(evAt(i))
	}
	const extra = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range extra {
		b.Record(evAt(maxStreamLines + i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / extra; per >= 1024 {
		t.Fatalf("a record past the cap allocates %d B, want < 1 KB", per)
	}
	lines, end, skipped, _ := follow(b, 0)
	if b.Dropped() != extra || end-skipped != maxStreamLines {
		t.Fatalf("dropped %d, window %d; want %d and %d", b.Dropped(), end-skipped, extra, maxStreamLines)
	}
	if skipped != extra || len(lines) != maxStreamLines || lines[0] != evLine(extra) || lines[len(lines)-1] != evLine(maxStreamLines+extra-1) {
		t.Fatalf("replay: %d lines from %q, skipped %d", len(lines), lines[0], skipped)
	}
}

// TestBroadcastRecordAllocatesNothing: on a broadcast nobody follows, a
// record makes no signal channel and packs into blocks that hold dozens
// of entries each, so it allocates nothing on average; once a follower
// has been handed the channel, the next record wakes it.
func TestBroadcastRecordAllocatesNothing(t *testing.T) {
	b := NewBroadcast(0)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		b.Record(evAt(i))
		i++
	}); allocs != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", allocs)
	}
	var v telemetry.Batch
	_, _, wait := b.Next(&v, 0)
	b.Record(evAt(i))
	select {
	case <-wait:
	default:
		t.Fatal("a record after Next did not close the handed-out channel")
	}
}

// TestBroadcastConcurrentFollowers: one writer records ten times past a
// small cap while two followers loop on Next. Each must see logical
// indices in order, gaps exactly as large as the reported skips, and
// every line equal to its record's (or note's) JSONL.
func TestBroadcastConcurrentFollowers(t *testing.T) {
	const capLines, total = 64, 640
	noteAt := func(i int) bool { return i%37 == 0 }
	want := func(i int) string {
		if noteAt(i) {
			return fmt.Sprintf(`{"note":%d}`, i)
		}
		return evLine(i)
	}
	b := NewBroadcast(capLines)
	var wg sync.WaitGroup
	for f := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v telemetry.Batch
			var line []byte
			from, seen := 0, 0
			for {
				skipped, closed, wait := b.Next(&v, from)
				i := from + skipped
				for k := range v.Len() {
					line = v.AppendLine(line[:0], k)
					if string(line) != want(i+k) {
						t.Errorf("follower %d: index %d is %s, want %s", f, i+k, line, want(i+k))
						return
					}
				}
				if v.End() != i+v.Len() {
					t.Errorf("follower %d: batch from %d of %d ends at %d", f, i, v.Len(), v.End())
					return
				}
				seen += skipped + v.Len()
				from = v.End()
				if closed {
					break
				}
				<-wait
			}
			if from != total || seen != total {
				t.Errorf("follower %d: ended at %d having accounted for %d, want %d", f, from, seen, total)
			}
		}()
	}
	for i := range total {
		if noteAt(i) {
			b.Note(want(i))
		} else {
			b.Record(evAt(i))
		}
		runtime.Gosched() // let the followers keep up now and then
	}
	b.Close()
	wg.Wait()
	if b.Dropped() != total-capLines {
		t.Fatalf("dropped %d, want %d", b.Dropped(), total-capLines)
	}
}

// flushCounter is a ResponseWriter that counts its Flush calls.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

// TestStreamFlushBudget: a subscriber flushes only when it has caught up,
// so replaying a finished job's ~1 000-line stream costs two flushes, the
// stream's open and its done, however many lines lie between them.
func TestStreamFlushBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var flushes atomic.Int64
	sh := s.Handler()
	fts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sh.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	t.Cleanup(fts.Close)
	spec := smallSpec(5)
	spec.Window = scenario.Duration(20 * time.Second)
	resp := mustSubmit(t, ts, spec, "")
	waitDone(t, s, resp.JobID)
	st, err := Client{Base: fts.URL}.Follow(resp.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Lines) < 900 || st.Done.Status != StatusDone {
		t.Fatalf("replay carried %d lines and ended %s; the budget needs a long stream", len(st.Lines), st.Done.Status)
	}
	if n := flushes.Load(); n > 2 {
		t.Fatalf("replaying %d lines took %d flushes, want at most 2 (the open and done)", len(st.Lines), n)
	}
}

// TestStreamHoldsNoLineWhileWaiting: a subscriber that has caught up with
// a live job holds back nothing while it waits for more — the first lines
// reach the client over HTTP before the job's stream closes.
func TestStreamHoldsNoLineWhileWaiting(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j := newJob("j-live", "", "", smallSpec(1))
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	t.Cleanup(j.Stream.Close) // unblocks the handler should the test fail first

	const k = 5
	gotK := make(chan struct{})
	type followed struct {
		st  *Stream
		err error
	}
	done := make(chan followed, 1)
	go func() {
		st, err := Client{Base: ts.URL}.Follow(j.ID, func(n int) {
			if n == k {
				close(gotK)
			}
		})
		done <- followed{st, err}
	}()
	for i := range k {
		j.Stream.Record(evAt(i))
	}
	select {
	case <-gotK:
	case f := <-done:
		t.Fatalf("stream ended before %d lines: %v", k, f.err)
	case <-time.After(30 * time.Second):
		t.Fatalf("the first %d lines did not reach the client while the stream waited for more", k)
	}
	j.Stream.Close()
	f := <-done
	if f.err != nil {
		t.Fatal(f.err)
	}
	if len(f.st.Lines) != k || f.st.Lines[k-1] != evLine(k-1) {
		t.Fatalf("stream carried %q, want evAt(0..%d)", f.st.Lines, k-1)
	}
}
