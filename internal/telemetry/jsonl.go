package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/digs-net/digs/internal/topology"
)

// header is the first line of every JSONL trace stream.
type header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// HeaderLine returns the serialized stream header (without newline), the
// first line of every JSONL trace.
func HeaderLine() []byte {
	return []byte(fmt.Sprintf(`{"schema":%q,"version":%d}`, SchemaName, SchemaVersion))
}

// JSONL exports events as one JSON object per line, preceded by a
// versioned schema header. Lines are written in a fixed field order with
// deterministic number formatting, so two identical simulations produce
// byte-identical streams — the property the campaign merge and the
// golden tests rest on.
type JSONL struct {
	w   io.Writer
	buf []byte
	err error
}

var _ Tracer = (*JSONL)(nil)

// NewJSONL returns a JSONL sink writing to w. The schema header is
// written immediately. The sink is not safe for concurrent use; parallel
// campaigns give each job its own sink (see WithJob and MergeJSONL).
func NewJSONL(w io.Writer) *JSONL {
	s := &JSONL{w: w, buf: make([]byte, 0, 256)}
	_, s.err = w.Write(append(HeaderLine(), '\n'))
	return s
}

// Record implements Tracer: it appends one line to the stream.
func (s *JSONL) Record(ev Event) {
	if s.err != nil {
		return
	}
	s.buf = AppendEventJSON(s.buf[:0], &ev)
	s.buf = append(s.buf, '\n')
	_, s.err = s.w.Write(s.buf)
}

// Flush implements Tracer. The sink writes through on every Record, so
// Flush only reports the first write error.
func (s *JSONL) Flush() error { return s.err }

// AppendEventJSON appends one event's trace line (without newline) in the
// fixed v1 field order: the one encoder of the JSONL format, which the
// server also uses to render retained events onto its streams.
func AppendEventJSON(b []byte, ev *Event) []byte {
	b = append(b, `{"asn":`...)
	b = strconv.AppendInt(b, ev.ASN, 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(ev.Node), 10)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(ev.Peer), 10)
	b = append(b, `,"peer2":`...)
	b = strconv.AppendInt(b, int64(ev.Peer2), 10)
	b = append(b, `,"origin":`...)
	b = strconv.AppendInt(b, int64(ev.Origin), 10)
	b = append(b, `,"flow":`...)
	b = strconv.AppendUint(b, uint64(ev.Flow), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(ev.Seq), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendUint(b, uint64(ev.Kind), 10)
	b = append(b, `,"hop":`...)
	b = strconv.AppendUint(b, uint64(ev.Hop), 10)
	b = append(b, `,"try":`...)
	b = strconv.AppendUint(b, uint64(ev.Attempt), 10)
	b = append(b, `,"ch":`...)
	b = strconv.AppendUint(b, uint64(ev.Channel), 10)
	b = append(b, `,"choff":`...)
	b = strconv.AppendUint(b, uint64(ev.ChOff), 10)
	b = append(b, `,"ack":`...)
	b = strconv.AppendBool(b, ev.Acked)
	b = append(b, `,"rss":`...)
	b = strconv.AppendFloat(b, ev.RSS, 'g', -1, 64)
	b = append(b, `,"q":`...)
	b = strconv.AppendInt(b, int64(ev.Queue), 10)
	b = append(b, `,"reason":"`...)
	b = append(b, ev.Reason.String()...)
	b = append(b, `","code":`...)
	b = strconv.AppendUint(b, uint64(ev.Code), 10)
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(ev.Job), 10)
	b = append(b, `,"born":`...)
	b = strconv.AppendInt(b, ev.Born, 10)
	return append(b, '}')
}

// jsonEvent mirrors the v1 line layout for decoding.
type jsonEvent struct {
	ASN    int64   `json:"asn"`
	Ev     string  `json:"ev"`
	Node   int     `json:"node"`
	Peer   int     `json:"peer"`
	Peer2  int     `json:"peer2"`
	Origin int     `json:"origin"`
	Flow   uint16  `json:"flow"`
	Seq    uint16  `json:"seq"`
	Kind   uint8   `json:"kind"`
	Hop    uint8   `json:"hop"`
	Try    uint16  `json:"try"`
	Ch     uint8   `json:"ch"`
	ChOff  uint8   `json:"choff"`
	Ack    bool    `json:"ack"`
	RSS    float64 `json:"rss"`
	Q      int16   `json:"q"`
	Reason string  `json:"reason"`
	Code   uint8   `json:"code"`
	Job    int32   `json:"job"`
	Born   int64   `json:"born"`
}

// Scan reads a JSONL stream, validates its schema header and calls fn for
// every event in order. It stops at the first error from fn.
func Scan(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	first := true
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if first {
			first = false
			var h header
			if err := json.Unmarshal(raw, &h); err != nil || h.Schema == "" {
				return fmt.Errorf("telemetry: line 1 is not a trace header: %q", raw)
			}
			if h.Schema != SchemaName || h.Version != SchemaVersion {
				return fmt.Errorf("telemetry: unsupported trace schema %s/v%d (want %s/v%d)",
					h.Schema, h.Version, SchemaName, SchemaVersion)
			}
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		ev := Event{
			ASN:     je.ASN,
			Type:    EventTypeFromString(je.Ev),
			Node:    topology.NodeID(je.Node),
			Peer:    topology.NodeID(je.Peer),
			Peer2:   topology.NodeID(je.Peer2),
			Origin:  topology.NodeID(je.Origin),
			Flow:    je.Flow,
			Seq:     je.Seq,
			Kind:    je.Kind,
			Hop:     je.Hop,
			Attempt: je.Try,
			Channel: je.Ch,
			ChOff:   je.ChOff,
			Acked:   je.Ack,
			RSS:     je.RSS,
			Queue:   je.Q,
			Reason:  DropReasonFromString(je.Reason),
			Code:    je.Code,
			Job:     je.Job,
			Born:    je.Born,
		}
		if ev.Type == 0 {
			return fmt.Errorf("telemetry: line %d: unknown event type %q", line, je.Ev)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if first {
		return fmt.Errorf("telemetry: empty trace (missing schema header)")
	}
	return nil
}

// MergeJSONL concatenates per-job JSONL streams into one stream: a single
// schema header followed by each part's events in the order given. Each
// part must itself be a valid stream (its header is validated and then
// stripped). Merging job-indexed parts in job order is deterministic, so
// a campaign produces byte-identical merged traces at any worker count.
func MergeJSONL(dst io.Writer, parts ...[]byte) error {
	want := append(HeaderLine(), '\n')
	if _, err := dst.Write(want); err != nil {
		return err
	}
	for i, p := range parts {
		if !bytes.HasPrefix(p, want) {
			head, _, _ := bytes.Cut(p, []byte("\n"))
			return fmt.Errorf("telemetry: merge part %d: bad or missing schema header %q", i, head)
		}
		if _, err := dst.Write(p[len(want):]); err != nil {
			return err
		}
	}
	return nil
}

// JobTraces is a campaign's trace file: each job records into its own
// job-stamped JSONL part, and Write merges the parts in job order, so the
// file is byte-identical at any worker count. The nil *JobTraces, a
// campaign run without a trace file, hands out nil tracers and writes
// nothing.
type JobTraces struct {
	path  string
	parts []bytes.Buffer
}

// NewJobTraces returns the trace of an n-job campaign bound for the file
// at path, or nil when path is empty.
func NewJobTraces(path string, n int) *JobTraces {
	if path == "" {
		return nil
	}
	return &JobTraces{path: path, parts: make([]bytes.Buffer, n)}
}

// Tracer returns job's sink. Jobs may record concurrently: each has a
// part of its own.
func (j *JobTraces) Tracer(job int) Tracer {
	if j == nil {
		return nil
	}
	return WithJob(NewJSONL(&j.parts[job]), job)
}

// Write merges the parts into the file and reports it on msg as "trace
// written to <path> (<jobs> <noun> merged)".
func (j *JobTraces) Write(msg io.Writer, noun string) error {
	if j == nil {
		return nil
	}
	raw := make([][]byte, len(j.parts))
	for i := range j.parts {
		raw[i] = j.parts[i].Bytes()
	}
	f, err := os.Create(j.path)
	if err != nil {
		return err
	}
	if err := MergeJSONL(f, raw...); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", j.path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(msg, "trace written to %s (%d %s merged)\n", j.path, len(j.parts), noun)
	return err
}
