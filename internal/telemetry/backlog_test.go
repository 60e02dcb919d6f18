package telemetry

import (
	"fmt"
	"math"
	"testing"

	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/wire"
)

// packed returns ev's packed form against prevASN.
func packed(ev Event, prevASN int64) []byte {
	var tp wire.Tape
	ev.CodePacked(tp.Encoder(nil), prevASN)
	return tp.Encoded()
}

// samePacked reports whether a and b are equal bit for bit, RSS included
// (NaN payloads and the sign of zero).
func samePacked(a, b Event) bool {
	if math.Float64bits(a.RSS) != math.Float64bits(b.RSS) {
		return false
	}
	a.RSS, b.RSS = 0, 0
	return a == b
}

// checkPacked packs ev against prevASN and demands that the bytes decode,
// to their last byte, into ev again.
func checkPacked(t *testing.T, ev Event, prevASN int64) {
	t.Helper()
	buf := packed(ev, prevASN)
	var tp wire.Tape
	var got Event
	got.RSS = 1 // a decoded event starts from zero
	c := tp.Decoder(buf, 0)
	got.CodePacked(c, prevASN)
	if err := c.Err(); err != nil {
		t.Fatalf("%+v against %d: %v", ev, prevASN, err)
	}
	if tp.Offset() != len(buf) {
		t.Fatalf("%+v: decoded %d of %d bytes", ev, tp.Offset(), len(buf))
	}
	if !samePacked(got, ev) {
		t.Fatalf("packed against %d:\n got %+v\nwant %+v", prevASN, got, ev)
	}
}

// extremeEvents are the values a narrower coding would lose: NaN payloads
// and −0 RSS, node IDs across the whole int range, ASN deltas and ages
// that wrap int64, and every bounded field at its maximum.
func extremeEvents() []Event {
	return []Event{
		{},
		{RSS: math.Copysign(0, -1)},
		{RSS: math.Float64frombits(0x7ff8_0000_dead_beef), ASN: 5},
		{RSS: math.Float64frombits(0xfff0_0000_0000_0001)}, // signalling NaN
		{RSS: math.Inf(-1), Acked: true},
		{RSS: -71.234567890123, Type: EvReceived}, // not a float32
		{Node: math.MaxInt, Peer: math.MinInt, Peer2: -1, Origin: math.MaxInt32 + 1},
		{ASN: math.MinInt64, Born: math.MaxInt64},
		{ASN: math.MaxInt64, Born: math.MinInt64},
		{Type: math.MaxUint8, Flow: math.MaxUint16, Seq: math.MaxUint16, Kind: math.MaxUint8,
			Hop: math.MaxUint8, Attempt: math.MaxUint16, Channel: math.MaxUint8, ChOff: math.MaxUint8,
			Queue: math.MinInt16, Reason: math.MaxUint8, Code: math.MaxUint8, Job: math.MinInt32},
		{Queue: math.MaxInt16, Job: math.MaxInt32, Born: -1},
	}
}

// TestPackedRoundTrip: every golden event and every extreme value
// round-trips bit for bit against a previous ASN of 0, of its own ASN and
// of one that wraps.
func TestPackedRoundTrip(t *testing.T) {
	for _, ev := range append(goldenEvents(), extremeEvents()...) {
		for _, prev := range []int64{0, ev.ASN, ev.ASN - 1, math.MinInt64, math.MaxInt64} {
			checkPacked(t, ev, prev)
		}
	}
}

// TestPackedSize pins the layout's size on the golden trace, packed in
// order as a backlog packs it, and the one-byte note placeholder.
func TestPackedSize(t *testing.T) {
	var n, prev int64
	events := goldenEvents()
	for _, ev := range events {
		n += int64(len(packed(ev, prev)))
		prev = ev.ASN
	}
	if per := float64(n) / float64(len(events)); per > 12 {
		t.Fatalf("golden events pack to %.1f B each, want <= 12", per)
	}
	if b := packed(Event{ASN: 415}, 415); len(b) != 1 {
		t.Fatalf("a note's placeholder packs to %d bytes, want 1", len(b))
	}
}

// FuzzPackedEvent: arbitrary field values round-trip bit for bit against
// an arbitrary previous ASN, and arbitrary bytes decode, one event after
// another, to an error or to events that round-trip themselves, without
// panicking.
func FuzzPackedEvent(f *testing.F) {
	for i, ev := range append(goldenEvents(), extremeEvents()...) {
		f.Add(ev.ASN, int64(i*37), uint8(ev.Type), int64(ev.Node), int64(ev.Peer), int64(ev.Peer2),
			int64(ev.Origin), ev.Flow, ev.Seq, ev.Kind, ev.Hop, ev.Attempt, ev.Channel, ev.ChOff,
			ev.Acked, math.Float64bits(ev.RSS), ev.Queue, uint8(ev.Reason), ev.Code, ev.Job, ev.Born,
			packed(ev, int64(i*37)))
	}
	f.Add(int64(0), int64(0), uint8(0), int64(0), int64(0), int64(0), int64(0), uint16(0), uint16(0),
		uint8(0), uint8(0), uint16(0), uint8(0), uint8(0), false, uint64(0), int16(0), uint8(0), uint8(0),
		int32(0), int64(0), []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x80})
	f.Fuzz(func(t *testing.T, asn, prev int64, typ uint8, node, peer, peer2, origin int64,
		flow, seq uint16, kind, hop uint8, attempt uint16, ch, choff uint8, acked bool,
		rss uint64, queue int16, reason, code uint8, job int32, born int64, raw []byte) {
		checkPacked(t, Event{
			ASN: asn, Type: EventType(typ), Node: topology.NodeID(node), Peer: topology.NodeID(peer),
			Peer2: topology.NodeID(peer2), Origin: topology.NodeID(origin), Flow: flow, Seq: seq,
			Kind: kind, Hop: hop, Attempt: attempt, Channel: ch, ChOff: choff, Acked: acked,
			RSS: math.Float64frombits(rss), Queue: queue, Reason: DropReason(reason), Code: code,
			Job: job, Born: born,
		}, prev)

		var tp wire.Tape
		off, at := 0, prev
		for off < len(raw) {
			var ev Event
			c := tp.Decoder(raw, off)
			ev.CodePacked(c, at)
			if c.Err() != nil {
				return
			}
			if tp.Offset() <= off {
				t.Fatalf("a decode at offset %d read nothing", off)
			}
			checkPacked(t, ev, at)
			off, at = tp.Offset(), ev.ASN
		}
	})
}

// evAt is the test's event for logical index i: its ASN names the index,
// and its RSS needs more than an integer to render.
func evAt(i int) Event {
	return Event{ASN: int64(i), Type: EvReceived, Node: 3, Peer: 1, RSS: -71.25 - float64(i%7)/8}
}

// lineAt is evAt(i)'s JSONL line.
func lineAt(i int) string {
	ev := evAt(i)
	return string(AppendEventJSON(nil, &ev))
}

// fill renders the batch Fill returns from the cursor from.
func fill(l *Backlog, bt *Batch, from int) (lines []string, skipped int) {
	skipped = l.Fill(bt, from)
	for i := range bt.Len() {
		lines = append(lines, string(bt.AppendLine(nil, i)))
	}
	return lines, skipped
}

// TestBatchResumesMidBlockPastNote: a follower's batch resumes mid-block
// from its own cursor after the trim has advanced first past a note — the
// note is released, the entries after it still render — and a fresh
// batch from the same place decodes from its block's start to the same
// lines.
func TestBatchResumesMidBlockPastNote(t *testing.T) {
	l := NewBacklog(4)
	l.Note("head")
	l.Add(evAt(1))
	l.Add(evAt(2))
	var bt Batch
	lines, _ := fill(l, &bt, 0)
	if fmt.Sprint(lines) != fmt.Sprint([]string{"head", lineAt(1), lineAt(2)}) {
		t.Fatalf("first batch %q", lines)
	}
	for i := 3; i <= 5; i++ { // window 2..5: head and 1 fall out
		l.Add(evAt(i))
	}
	if l.Dropped() != 2 || len(l.notes) != 0 || len(l.blocks) != 1 {
		t.Fatalf("dropped %d, %d notes, %d blocks; want 2, 0 and 1", l.Dropped(), len(l.notes), len(l.blocks))
	}
	skipped := l.Fill(&bt, bt.End())
	if skipped != 0 || bt.pos != 3 || bt.off == 0 {
		t.Fatalf("resumed batch: skipped %d, cursor at entry %d byte %d; want 0, 3 and mid-block", skipped, bt.pos, bt.off)
	}
	lines = lines[:0]
	for i := range bt.Len() {
		lines = append(lines, string(bt.AppendLine(nil, i)))
	}
	if fmt.Sprint(lines) != fmt.Sprint([]string{lineAt(3), lineAt(4), lineAt(5)}) {
		t.Fatalf("resumed batch %q", lines)
	}
	l.Note("tail")
	if lines, _ := fill(l, &bt, bt.End()); fmt.Sprint(lines) != "[tail]" {
		t.Fatalf("note after the trim: %q", lines)
	}
	var fresh Batch
	lines, skipped = fill(l, &fresh, 0)
	if skipped != 3 || fmt.Sprint(lines) != fmt.Sprint([]string{lineAt(3), lineAt(4), lineAt(5), "tail"}) {
		t.Fatalf("fresh batch from 0: %q skipped %d", lines, skipped)
	}
}

// TestBatchAnyOrder: entries read out of order, across blocks, render as
// they do in order.
func TestBatchAnyOrder(t *testing.T) {
	l := NewBacklog(1000)
	for i := range 500 {
		if i%50 == 7 {
			l.Note(fmt.Sprintf(`{"note":%d}`, i))
			continue
		}
		l.Add(evAt(i))
	}
	if len(l.blocks) < 3 {
		t.Fatalf("500 entries fill %d blocks, want several", len(l.blocks))
	}
	var bt Batch
	inOrder, _ := fill(l, &bt, 20)
	for _, i := range []int{400, 3, 3, 479, 0, 250, 87, 88, 86} {
		if got := string(bt.AppendLine(nil, i)); got != inOrder[i] {
			t.Fatalf("entry %d out of order: %s, in order %s", i, got, inOrder[i])
		}
	}
}

// TestBacklogPastCapReleasesBlocks: past the cap the log holds exactly
// the blocks the window touches, no more than cap/perBlock + 2 of them,
// and packed bytes plus one block of slack: a full block leaves unused
// only the tail an entry did not fit in.
func TestBacklogPastCapReleasesBlocks(t *testing.T) {
	const capLines, extra = 1 << 17, 2000
	l := NewBacklog(capLines)
	for i := range capLines + extra {
		l.Add(evAt(i))
	}
	if l.Dropped() != extra || l.end-l.first != capLines {
		t.Fatalf("dropped %d, window %d; want %d and %d", l.Dropped(), l.end-l.first, extra, capLines)
	}
	if l.blocks[0].at > l.first || l.blocks[1].at <= l.first {
		t.Fatalf("blocks start at %d and %d, window at %d: want exactly the blocks the window touches",
			l.blocks[0].at, l.blocks[1].at, l.first)
	}
	widest := len(packed(evAt(capLines+extra), 0))
	if bound := capLines/(blockBytes/widest) + 2; len(l.blocks) > bound {
		t.Fatalf("%d blocks held, want at most %d", len(l.blocks), bound)
	}
	held, used := 0, 0
	for i, b := range l.blocks {
		if cap(b.buf) != blockBytes {
			t.Fatalf("block %d has capacity %d, want %d", i, cap(b.buf), blockBytes)
		}
		if i < len(l.blocks)-1 && blockBytes-len(b.buf) >= widest {
			t.Fatalf("block %d closed with %d bytes free, room for another entry", i, blockBytes-len(b.buf))
		}
		held, used = held+cap(b.buf), used+len(b.buf)
	}
	if slack := held - used; slack > blockBytes+len(l.blocks)*widest {
		t.Fatalf("%d bytes held for %d packed", held, used)
	}
}
