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
// Entries are kept as telemetry.Event records (88 B, no pointers) and
// rendered to their JSONL lines only when a subscriber is sent them. The
// few lines that are not events (each attempt's schema header, the
// server's worker_panic and store_error lines) are notes: kept aside as
// text at their logical position, with an empty record holding the place.
//
// Retention is bounded: past max entries the oldest falls out, one entry
// per entry added, and Dropped counts them so late subscribers learn what
// they missed. Records sit in fixed-size blocks that are appended to and
// never overwritten, and a block is released once it lies wholly before
// the retained window. So an entry costs O(1) past the cap, and a Batch
// taken under the lock stays valid after it is released.
type Broadcast struct {
	mu     sync.Mutex
	blocks []*block // blocks[0] holds logical indices base..base+blockLen-1
	base   int      // logical index of blocks[0][0]
	first  int      // logical index of the oldest retained entry
	end    int      // logical index the next entry takes
	notes  []note   // retained notes, in logical order
	max    int
	closed bool
	signal chan struct{} // closed and replaced on every append/Close
}

// blockLen records of 88 B fill one 8 KB allocation, so a job's last,
// partly filled block wastes at most that much.
const blockLen = 93

type block [blockLen]telemetry.Event

// note is a non-event line and the logical index it holds.
type note struct {
	at   int
	text string
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
	return &Broadcast{max: maxLines, signal: make(chan struct{})}
}

// Record implements telemetry.Tracer: it appends one event. A record after
// Close (a late tracer call) has nowhere to go and is swallowed.
func (b *Broadcast) Record(ev telemetry.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.push(ev)
	}
}

// Note appends a line that is not an event; text holds no line break. A
// note after Close is swallowed like a record.
func (b *Broadcast) Note(text string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.notes = append(b.notes, note{at: b.end, text: text})
		b.push(telemetry.Event{})
	}
}

// Flush implements telemetry.Tracer: records are published as they come,
// so there is nothing to flush and no error to report.
func (b *Broadcast) Flush() error { return nil }

// push appends one entry, trims the window to max entries and wakes the
// subscribers; mu must be held.
func (b *Broadcast) push(ev telemetry.Event) {
	k := b.end - b.base
	if k == len(b.blocks)*blockLen {
		b.blocks = append(b.blocks, new(block))
	}
	b.blocks[k/blockLen][k%blockLen] = ev
	b.end++
	if b.end-b.first > b.max {
		b.first++
		if b.first-b.base == blockLen {
			b.blocks[0] = nil
			b.blocks = b.blocks[1:]
			b.base += blockLen
		}
		if len(b.notes) > 0 && b.notes[0].at < b.first {
			b.notes[0] = note{}
			b.notes = b.notes[1:]
		}
	}
	b.wake()
}

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

// wake must be called with mu held.
func (b *Broadcast) wake() {
	close(b.signal)
	b.signal = make(chan struct{})
}

// A Batch is a run of consecutive backlog entries, filled by Next and read
// after Next returns: the records it names are never written again.
type Batch struct {
	blocks    []*block
	off       int // position of the batch's first entry in blocks[0]
	from, end int // the logical indices from..end-1
	notes     []note
}

// Len returns the number of entries in the batch.
func (bt *Batch) Len() int { return bt.end - bt.from }

// End returns the logical index just past the batch, where to resume.
func (bt *Batch) End() int { return bt.end }

// AppendLine appends the JSONL line of the batch's i-th entry (without
// newline) to dst: a note's text, else the record in the v1 encoding.
func (bt *Batch) AppendLine(dst []byte, i int) []byte {
	k := bt.off + i
	ev := &bt.blocks[k/blockLen][k%blockLen]
	if ev.Type == 0 {
		for _, n := range bt.notes {
			if n.at == bt.from+i {
				return append(dst, n.text...)
			}
		}
	}
	return telemetry.AppendEventJSON(dst, ev)
}

// Next fills bt with every entry with logical index >= from, reusing its
// storage, and returns how many entries between from and the batch fell
// out of the retention window (a lagging subscriber's gap), whether the
// stream is complete, and a channel that closes on the next publication
// (for blocking waits). A from older than the retained window resumes at
// the window start, with the gap size in skipped so followers can surface
// the loss instead of silently snapping forward.
func (b *Broadcast) Next(bt *Batch, from int) (skipped int, closed bool, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < b.first {
		skipped = b.first - from
		from = b.first
	}
	clear(bt.blocks)
	bt.blocks, bt.notes = bt.blocks[:0], bt.notes[:0]
	bt.from, bt.end = from, max(from, b.end)
	if from < b.end {
		lo, hi := from-b.base, b.end-1-b.base
		bt.off = lo % blockLen
		bt.blocks = append(bt.blocks, b.blocks[lo/blockLen:hi/blockLen+1]...)
		for _, n := range b.notes {
			if n.at >= from {
				bt.notes = append(bt.notes, n)
			}
		}
	}
	return skipped, b.closed, b.signal
}

// Dropped returns how many entries fell out of the retention window.
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
// bytes of a rendered telemetry line, written without a copy.
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
