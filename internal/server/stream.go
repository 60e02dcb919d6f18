package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Broadcast is a per-job telemetry fan-out: the job's JSONL tracer writes
// lines into it from the worker goroutine, and any number of SSE
// subscribers replay the stream from the beginning and then follow it
// live. It implements io.Writer so it can sit directly under a
// telemetry.JSONL sink.
//
// The buffer is bounded: past maxLines the oldest lines are dropped (the
// Dropped count tells late subscribers how much history they missed).
// Lines are copied on entry — the JSONL sink reuses its scratch buffer.
type Broadcast struct {
	mu      sync.Mutex
	lines   [][]byte
	partial []byte
	first   int // logical index of lines[0]
	max     int
	closed  bool
	signal  chan struct{} // closed and replaced on every append/Close
}

// maxStreamLines bounds each job's retained telemetry backlog.
const maxStreamLines = 1 << 17

// NewBroadcast returns a broadcast buffer holding at most maxLines lines
// (<= 0 means maxStreamLines).
func NewBroadcast(maxLines int) *Broadcast {
	if maxLines <= 0 {
		maxLines = maxStreamLines
	}
	return &Broadcast{max: maxLines, signal: make(chan struct{})}
}

// Write implements io.Writer: input is split into lines; complete lines
// are published, a trailing fragment is buffered until its newline
// arrives.
func (b *Broadcast) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		// A write after Close (e.g. a late Flush) has nowhere to go.
		return len(p), nil
	}
	data := p
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			b.partial = append(b.partial, data...)
			break
		}
		line := make([]byte, 0, len(b.partial)+i)
		line = append(line, b.partial...)
		line = append(line, data[:i]...)
		b.partial = b.partial[:0]
		b.lines = append(b.lines, line)
		data = data[i+1:]
	}
	if over := len(b.lines) - b.max; over > 0 {
		b.lines = append([][]byte(nil), b.lines[over:]...)
		b.first += over
	}
	b.wake()
	return len(p), nil
}

// Close marks the stream complete (an unterminated final fragment is
// published as its own line) and wakes every subscriber.
func (b *Broadcast) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if len(b.partial) > 0 {
		b.lines = append(b.lines, append([]byte(nil), b.partial...))
		b.partial = nil
	}
	b.closed = true
	b.wake()
}

// wake must be called with mu held.
func (b *Broadcast) wake() {
	close(b.signal)
	b.signal = make(chan struct{})
}

// Next returns every published line with logical index >= from, the next
// logical index to resume at, how many lines between from and the first
// returned line fell out of the retention window (a lagging subscriber's
// gap), whether the stream is complete, and a channel that closes on the
// next publication (for blocking waits). A from older than the retained
// window resumes at the window start, with the gap size in skipped so
// followers can surface the loss instead of silently snapping forward.
func (b *Broadcast) Next(from int) (lines [][]byte, next, skipped int, closed bool, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < b.first {
		skipped = b.first - from
		from = b.first
	}
	if off := from - b.first; off < len(b.lines) {
		lines = b.lines[off:]
	}
	return lines, from + len(lines), skipped, b.closed, b.signal
}

// Dropped returns how many lines fell out of the retention window.
func (b *Broadcast) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first
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
// bytes of a retained telemetry line, written without a copy.
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
