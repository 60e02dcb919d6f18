package telemetry

import (
	"math"

	"github.com/digs-net/digs/internal/wire"
)

// Presence bits of the packed layout, most often set first so that the
// mask of a common event fits one or two varint bytes.
const (
	pType = 1 << iota
	pNode
	pChannel
	pPeer
	pKind
	pASN
	pChOff
	pOrigin
	pFlow
	pBorn
	pQueue
	pSeq
	pHop
	pAcked
	pPeer2
	pAttempt
	pRSS
	pReason
	pCode
	pJob
)

// CodePacked is the event's packed layout, the form a job's backlog keeps
// it in: a presence mask, then each field the mask names. ASN travels as
// its delta from prevASN, Born as ASN − Born, RSS as its 8 raw bytes
// (NaN and −0 included), every other field as a varint present only when
// non-zero, and Acked as its presence bit alone. Every value of every
// field round-trips bit for bit; a decoded event starts from zero.
func (ev *Event) CodePacked(c *wire.Coder, prevASN int64) {
	var m uint64
	var delta, age int64
	if c.Decoding() {
		*ev = Event{}
	} else {
		m = ev.present(prevASN)
		delta, age = ev.ASN-prevASN, ev.ASN-ev.Born
	}
	c.U64(&m)
	if m&pType != 0 {
		wire.Uint(c, &ev.Type)
	}
	if m&pNode != 0 {
		wire.Uvarint(c, &ev.Node)
	}
	if m&pChannel != 0 {
		wire.Uint(c, &ev.Channel)
	}
	if m&pPeer != 0 {
		wire.Uvarint(c, &ev.Peer)
	}
	if m&pKind != 0 {
		wire.Uint(c, &ev.Kind)
	}
	if m&pASN != 0 {
		c.I64(&delta)
	}
	if m&pChOff != 0 {
		wire.Uint(c, &ev.ChOff)
	}
	if m&pOrigin != 0 {
		wire.Uvarint(c, &ev.Origin)
	}
	if m&pFlow != 0 {
		wire.Uint(c, &ev.Flow)
	}
	if m&pBorn != 0 {
		c.I64(&age)
	}
	if m&pQueue != 0 {
		wire.Signed(c, &ev.Queue)
	}
	if m&pSeq != 0 {
		wire.Uint(c, &ev.Seq)
	}
	if m&pHop != 0 {
		wire.Uint(c, &ev.Hop)
	}
	if m&pPeer2 != 0 {
		wire.Uvarint(c, &ev.Peer2)
	}
	if m&pAttempt != 0 {
		wire.Uint(c, &ev.Attempt)
	}
	if m&pRSS != 0 {
		c.Float(&ev.RSS)
	}
	if m&pReason != 0 {
		wire.Uint(c, &ev.Reason)
	}
	if m&pCode != 0 {
		wire.Uint(c, &ev.Code)
	}
	if m&pJob != 0 {
		wire.Signed(c, &ev.Job)
	}
	if c.Decoding() {
		ev.Acked = m&pAcked != 0
		ev.ASN = prevASN + delta
		if m&pBorn != 0 {
			ev.Born = ev.ASN - age
		}
	}
}

// present returns the packed layout's presence mask for ev.
func (ev *Event) present(prevASN int64) uint64 {
	var m uint64
	set := func(bit uint64, on bool) {
		if on {
			m |= bit
		}
	}
	set(pType, ev.Type != 0)
	set(pNode, ev.Node != 0)
	set(pChannel, ev.Channel != 0)
	set(pPeer, ev.Peer != 0)
	set(pKind, ev.Kind != 0)
	set(pASN, ev.ASN != prevASN)
	set(pChOff, ev.ChOff != 0)
	set(pOrigin, ev.Origin != 0)
	set(pFlow, ev.Flow != 0)
	set(pBorn, ev.Born != 0)
	set(pQueue, ev.Queue != 0)
	set(pSeq, ev.Seq != 0)
	set(pHop, ev.Hop != 0)
	set(pAcked, ev.Acked)
	set(pPeer2, ev.Peer2 != 0)
	set(pAttempt, ev.Attempt != 0)
	set(pRSS, math.Float64bits(ev.RSS) != 0)
	set(pReason, ev.Reason != 0)
	set(pCode, ev.Code != 0)
	set(pJob, ev.Job != 0)
	return m
}

// Backlog is a bounded log of a run's trace lines, kept packed: each
// event in its CodePacked form (~10 B where the record is 88), appended
// to fixed-capacity blocks that are never written below their length
// again, so a Batch filled from the log stays readable while the log
// grows. Each block's first entry is coded against ASN 0, so a block
// decodes on its own. The few lines that are not events (a schema
// header, a server's error lines) are notes: kept aside as text at their
// logical position, with an empty event at the previous ASN (one byte)
// holding the place.
//
// Retention is exact: past max entries the oldest falls out, one entry
// per entry added, and a block is released once it lies wholly before the
// window. An entry costs O(1) past the cap, and a log holds its packed
// size, plus the unfilled part of its last block, plus less than one
// entry at the end of each full block (an entry never straddles two).
//
// A Backlog is not safe for concurrent use: its owner serialises Add,
// Note and Fill, and reads the filled Batches wherever it likes.
type Backlog struct {
	blocks  []block // blocks[0] holds the oldest retained entry
	first   int     // logical index of the oldest retained entry
	end     int     // logical index the next entry takes
	notes   []note  // retained notes, in logical order
	max     int
	prev    int64 // ASN of the last entry added
	tape    wire.Tape
	scratch []byte
}

// blockBytes is a block's capacity: ~100 entries, and at most that many
// to decode to reach an entry in its middle.
const blockBytes = 1 << 10

// block is a run of packed entries, the first of them at logical index
// at. Its capacity is blockBytes, so appending never moves it.
type block struct {
	at  int
	buf []byte
}

// note is a non-event line and the logical index it holds.
type note struct {
	at   int
	text string
}

// NewBacklog returns a log holding at most max entries (max >= 1).
func NewBacklog(max int) *Backlog {
	return &Backlog{max: max}
}

// Add appends one event.
func (l *Backlog) Add(ev Event) {
	l.scratch = l.pack(&ev, l.prev)
	n := len(l.blocks)
	if n == 0 || len(l.blocks[n-1].buf)+len(l.scratch) > blockBytes {
		l.blocks = append(l.blocks, block{at: l.end, buf: make([]byte, 0, blockBytes)})
		l.scratch = l.pack(&ev, 0)
		n++
	}
	l.blocks[n-1].buf = append(l.blocks[n-1].buf, l.scratch...)
	l.prev = ev.ASN
	l.end++
	if l.end-l.first > l.max {
		l.first++
		if len(l.blocks) > 1 && l.blocks[1].at <= l.first {
			l.blocks[0] = block{}
			l.blocks = l.blocks[1:]
		}
		if len(l.notes) > 0 && l.notes[0].at < l.first {
			l.notes[0] = note{}
			l.notes = l.notes[1:]
		}
	}
}

// pack returns ev's packed form against prevASN, in the log's scratch
// buffer.
func (l *Backlog) pack(ev *Event, prevASN int64) []byte {
	ev.CodePacked(l.tape.Encoder(l.scratch[:0]), prevASN)
	return l.tape.Encoded()
}

// Note appends a line that is not an event; text holds no line break.
func (l *Backlog) Note(text string) {
	l.notes = append(l.notes, note{at: l.end, text: text})
	l.Add(Event{ASN: l.prev})
}

// Dropped returns how many entries fell out of the retention window.
func (l *Backlog) Dropped() int { return l.first }

// A Batch is a run of consecutive backlog entries, filled by
// Backlog.Fill and read after it returns, outside whatever lock guards
// the log: the bytes it names are never written again. It decodes its
// entries in order with a cursor that a later Fill from the batch's end
// resumes, so a follower decodes each entry once.
type Batch struct {
	blocks    []block // blocks[0] holds entry from; each buf as long as at Fill
	from, end int     // the logical indices from..end-1
	notes     []note
	src       *Backlog

	// The decoding cursor: entry pos starts at byte off of the block
	// whose first entry is cur (blocks[k] while the batch holds it), and
	// the entry before it in that block has ASN prev.
	k, cur, pos, off int
	prev             int64
	tape             wire.Tape
	ev               Event
}

// Fill fills bt with every entry with logical index >= from, reusing its
// storage, and returns how many entries between from and the batch fell
// out of the retention window. A from older than the window resumes at
// the window's start.
func (l *Backlog) Fill(bt *Batch, from int) (skipped int) {
	if from < l.first {
		skipped = l.first - from
		from = l.first
	}
	resume := bt.src == l && bt.pos == from
	clear(bt.blocks)
	bt.blocks, bt.notes = bt.blocks[:0], bt.notes[:0]
	bt.src, bt.from, bt.end = l, from, max(from, l.end)
	if from >= l.end {
		return skipped
	}
	j := len(l.blocks) - 1
	for l.blocks[j].at > from {
		j--
	}
	bt.blocks = append(bt.blocks, l.blocks[j:]...)
	for _, n := range l.notes {
		if n.at >= from {
			bt.notes = append(bt.notes, n)
		}
	}
	bt.k = 0
	if !resume || bt.cur != bt.blocks[0].at {
		bt.seek(0)
	}
	return skipped
}

// seek moves the cursor to the start of blocks[k].
func (bt *Batch) seek(k int) {
	bt.k, bt.cur, bt.pos, bt.off, bt.prev = k, bt.blocks[k].at, bt.blocks[k].at, 0, 0
}

// Len returns the number of entries in the batch.
func (bt *Batch) Len() int { return bt.end - bt.from }

// End returns the logical index just past the batch, where to resume.
func (bt *Batch) End() int { return bt.end }

// AppendLine appends the JSONL line of the batch's i-th entry (without
// newline) to dst: a note's text, else the event in the v1 encoding.
func (bt *Batch) AppendLine(dst []byte, i int) []byte {
	at := bt.from + i
	if at < bt.pos {
		k := len(bt.blocks) - 1
		for bt.blocks[k].at > at {
			k--
		}
		bt.seek(k)
	}
	for bt.pos <= at {
		if bt.off == len(bt.blocks[bt.k].buf) {
			bt.seek(bt.k + 1)
		}
		bt.ev.CodePacked(bt.tape.Decoder(bt.blocks[bt.k].buf, bt.off), bt.prev)
		bt.off, bt.prev = bt.tape.Offset(), bt.ev.ASN
		bt.pos++
	}
	if bt.ev.Type == 0 {
		for _, n := range bt.notes {
			if n.at == at {
				return append(dst, n.text...)
			}
		}
	}
	return AppendEventJSON(dst, &bt.ev)
}
