package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/digs-net/digs/internal/telemetry"
)

// Broadcast is a job's telemetry backlog and fan-out: the worker records
// the run's events into it as its telemetry.Tracer, and any number of SSE
// subscribers replay it from the beginning and then follow it live.
//
// The backlog is a telemetry.Backlog: each event packed to ~10 B and
// rendered to its JSONL line only when a subscriber is sent it, the few
// lines that are not events (each attempt's schema header, the server's
// worker_panic and store_error lines) kept aside as notes at their logical
// position. Retention is bounded: past max entries the oldest falls out,
// one entry per entry added, and Dropped counts them so late subscribers
// learn what they missed. A Batch filled under the lock stays valid after
// it is released.
type Broadcast struct {
	mu     sync.Mutex
	log    *telemetry.Backlog
	closed bool
	signal chan struct{} // closed and replaced on the first append/Close after Next hands it out
	handed bool          // Next has handed signal out since it was made
}

// maxStreamLines bounds each job's retained telemetry backlog.
const maxStreamLines = 1 << 17

var _ telemetry.Tracer = (*Broadcast)(nil)

// NewBroadcast returns a broadcast buffer holding at most maxLines entries
// (<= 0 means maxStreamLines).
func NewBroadcast(maxLines int) *Broadcast {
	if maxLines <= 0 {
		maxLines = maxStreamLines
	}
	return &Broadcast{log: telemetry.NewBacklog(maxLines), signal: make(chan struct{})}
}

// Record implements telemetry.Tracer: it appends one event. A record after
// Close (a late tracer call) has nowhere to go and is swallowed.
func (b *Broadcast) Record(ev telemetry.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.log.Add(ev)
		b.wake()
	}
}

// Note appends a line that is not an event; text holds no line break. A
// note after Close is swallowed like a record.
func (b *Broadcast) Note(text string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.log.Note(text)
		b.wake()
	}
}

// Flush implements telemetry.Tracer: records are published as they come,
// so there is nothing to flush and no error to report.
func (b *Broadcast) Flush() error { return nil }

// Close marks the stream complete and wakes every subscriber.
func (b *Broadcast) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.wake()
}

// wake wakes whoever waits on the signal channel; mu must be held. Only a
// channel Next has handed out can have waiters, so a record nobody follows
// makes no new channel.
func (b *Broadcast) wake() {
	if b.handed {
		close(b.signal)
		b.signal = make(chan struct{})
		b.handed = false
	}
}

// Next fills bt with every entry with logical index >= from, reusing its
// storage, and returns how many entries between from and the batch fell
// out of the retention window (a lagging subscriber's gap), whether the
// stream is complete, and a channel that closes on the next publication
// (for blocking waits). A from older than the retained window resumes at
// the window start, with the gap size in skipped so followers can surface
// the loss instead of silently snapping forward.
func (b *Broadcast) Next(bt *telemetry.Batch, from int) (skipped int, closed bool, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handed = true
	return b.log.Fill(bt, from), b.closed, b.signal
}

// Dropped returns how many entries fell out of the retention window.
func (b *Broadcast) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.log.Dropped()
}

// OpenStream starts the job's Server-Sent Events answer: 501 when w
// cannot flush, else the event-stream headers, a 200 and a first flush,
// so the client sees the stream open before its first event.
func OpenStream(w http.ResponseWriter, jobID string) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, "streaming unsupported")
		return nil, false
	}
	h := w.Header()
	h.Set(HeaderJob, jobID)
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// WriteEvent writes one event: a "message" (a telemetry line) is a bare
// data line, every other kind is named on an event line before its data.
// Neither event nor data may hold a line break. Data is a string or the
// bytes of a rendered telemetry line; bytes are formatted as they are,
// never converted to a string first.
func WriteEvent[T string | []byte](w io.Writer, event string, data T) error {
	var err error
	if event == "message" {
		_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}
	return err
}

// EventReader reads an event stream one data line at a time: the client
// and the gateway's stream relay both read through it.
type EventReader struct {
	rd    *bufio.Reader
	event string
}

// NewEventReader reads the stream r.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{rd: bufio.NewReaderSize(r, 64<<10), event: "message"}
}

// Next returns the next data line and the event it belongs to ("message"
// unless an event line named another since the last blank line). A final
// line with no newline is never returned: a sender dying mid-write leaves
// a fragment, and a relay that forwarded it would hand on a truncated line
// and count a line its next replica still has to send. The error is the
// read's, io.EOF at a clean end.
func (er *EventReader) Next() (event, data string, err error) {
	for {
		line, err := er.rd.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\r\n")
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			er.event = ev
		} else if data, ok := strings.CutPrefix(line, "data: "); ok {
			return er.event, data, nil
		} else if line == "" {
			er.event = "message"
		}
	}
}
