package wire_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/wire"
)

type nodeID int

type (
	hops  uint8
	drift int16
)

// entry is a table element with a 3-byte narrowest wire form.
type entry struct {
	Node nodeID
	Hops uint8
	At   int64
}

// record holds one value for every primitive and helper of the Coder.
type record struct {
	U64   uint64
	I64   int64
	Float float64
	Bytes []byte
	Str   string
	U8    uint8
	U16   uint16
	Int   int
	Bool  bool
	Idx   int32
	Node  nodeID
	Hop   hops  // a narrow named unsigned type
	Drift drift // a narrow named signed type

	Table []entry // counted slice

	HasOpt bool // presence flag in front of a table of its own
	Opt    []entry

	Probs []float64 // presence flag in front of two vectors under one count
	Seeds []uint64

	Ptr *entry // presence flag in front of a pointer entry
}

func codeEntry(c *wire.Coder) func(*entry) {
	return func(e *entry) {
		wire.Uvarint(c, &e.Node)
		c.U8(&e.Hops)
		c.I64(&e.At)
	}
}

// code is the record's one layout: the same walk writes it and reads it.
func (r *record) code(c *wire.Coder) {
	c.U64(&r.U64)
	c.I64(&r.I64)
	c.Float(&r.Float)
	c.Bytes(&r.Bytes)
	c.Str(&r.Str)
	c.U8(&r.U8)
	c.U16(&r.U16)
	c.Int(&r.Int)
	c.Bool(&r.Bool)
	c.Index32(&r.Idx)
	wire.Uvarint(c, &r.Node)
	wire.Uint(c, &r.Hop)
	wire.Signed(c, &r.Drift)
	wire.Slice(c, &r.Table, 3, codeEntry(c))
	c.Bool(&r.HasOpt)
	if r.HasOpt {
		wire.Slice(c, &r.Opt, 3, codeEntry(c))
	}
	if c.Present(r.Probs != nil) {
		n := c.Len(len(r.Probs), 9)
		wire.Vector(c, &r.Probs, n, c.Float)
		wire.Vector(c, &r.Seeds, n, c.U64)
	}
	if c.Present(r.Ptr != nil) {
		if c.Decoding() {
			r.Ptr = &entry{}
		}
		codeEntry(c)(r.Ptr)
	}
}

func randEntry(rng *rand.Rand) entry {
	return entry{Node: nodeID(rng.Intn(1 << 20)), Hops: uint8(rng.Intn(256)), At: rng.Int63() - rng.Int63()}
}

func randEntries(rng *rand.Rand) []entry {
	n := rng.Intn(4)
	if n == 0 {
		return nil // a counted slice decodes empty as nil
	}
	out := make([]entry, n)
	for i := range out {
		out[i] = randEntry(rng)
	}
	return out
}

func randRecord(rng *rand.Rand) *record {
	floats := []float64{0, -0.0, 1.5, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, rng.NormFloat64()}
	r := &record{
		U64:   rng.Uint64() >> uint(rng.Intn(64)),
		I64:   int64(rng.Uint64()) >> uint(rng.Intn(64)),
		Float: floats[rng.Intn(len(floats))],
		Str:   strings.Repeat("s", rng.Intn(5)),
		U8:    uint8(rng.Intn(256)),
		U16:   uint16(rng.Intn(1 << 16)),
		Int:   int(int32(rng.Uint32())),
		Bool:  rng.Intn(2) == 1,
		Idx:   int32(rng.Uint32()),
		Node:  nodeID(rng.Int63()),
		Hop:   hops(rng.Intn(256)),
		Drift: drift(rng.Intn(1<<16) - 1<<15),
		Table: randEntries(rng),
	}
	if n := rng.Intn(5); n > 0 { // an empty byte string decodes as nil
		r.Bytes = make([]byte, n)
		rng.Read(r.Bytes)
	}
	if r.HasOpt = rng.Intn(2) == 1; r.HasOpt {
		r.Opt = randEntries(rng)
	}
	if rng.Intn(2) == 1 {
		n := rng.Intn(3) // 0: present but empty stays non-nil
		r.Probs, r.Seeds = make([]float64, n), make([]uint64, n)
		for i := 0; i < n; i++ {
			r.Probs[i], r.Seeds[i] = rng.Float64(), rng.Uint64()
		}
	}
	if rng.Intn(2) == 1 {
		e := randEntry(rng)
		r.Ptr = &e
	}
	return r
}

// TestCoderSymmetry: whatever a layout encodes, the same layout decodes —
// every primitive and every helper, over random values, including the
// nil-versus-empty conventions (an empty counted slice is nil; a vector
// behind a presence flag is non-nil even when empty) — and a second encode
// of the decoded value reproduces the bytes.
func TestCoderSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 2000; i++ {
		want := randRecord(rng)
		var w wire.Writer
		want.code(wire.Encoder(&w))

		rd := wire.NewReader(w.Buf)
		got := &record{}
		got.code(wire.Decoder(rd))
		if rd.Err() != nil || rd.Remaining() != 0 {
			t.Fatalf("record %d: decode: %v, %d bytes left", i, rd.Err(), rd.Remaining())
		}
		if math.Signbit(got.Float) != math.Signbit(want.Float) {
			t.Fatalf("record %d: float sign lost: %v vs %v", i, got.Float, want.Float)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
		var again wire.Writer
		got.code(wire.Encoder(&again))
		if !bytes.Equal(again.Buf, w.Buf) {
			t.Fatalf("record %d: re-encode differs", i)
		}
	}
}

// TestNaNRoundTrips: floats travel as bit patterns.
func TestNaNRoundTrips(t *testing.T) {
	nan := math.Float64frombits(0x7ff8dead0000beef)
	var w wire.Writer
	wire.Encoder(&w).Float(&nan)
	var back float64
	wire.Decoder(wire.NewReader(w.Buf)).Float(&back)
	if math.Float64bits(back) != math.Float64bits(nan) {
		t.Fatalf("NaN payload %x came back %x", math.Float64bits(nan), math.Float64bits(back))
	}
}

// TestCountBoundedByRemainingInput: a collection count is accepted exactly
// when count × minimum element width fits the bytes that remain, so the
// allocation behind it can never exceed the input that justifies it.
func TestCountBoundedByRemainingInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		remaining, min := rng.Intn(200), 1+rng.Intn(24)
		count := uint64(rng.Intn(2 * (remaining/min + 1)))
		if rng.Intn(8) == 0 {
			count = rng.Uint64() // adversarial: up to 2^64-1 entries
		}
		var w wire.Writer
		w.U64(count)
		w.Buf = append(w.Buf, make([]byte, remaining)...)

		n := wire.NewReader(w.Buf).Count(min)
		fits := count <= uint64(remaining/min)
		if fits != (n == int(count)) || (!fits && n != 0) {
			t.Fatalf("count %d, %d bytes left, %d a piece: Count returned %d", count, remaining, min, n)
		}

		rd := wire.NewReader(w.Buf)
		var table []entry
		wire.Slice(wire.Decoder(rd), &table, min, func(*entry) {})
		if (rd.Err() == nil) != fits || len(table) > remaining/min {
			t.Fatalf("count %d, %d bytes left, %d a piece: Slice made %d entries, err %v",
				count, remaining, min, len(table), rd.Err())
		}
	}

	// A count no allocation could satisfy: refused before any is tried.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3} // 2^63-1
	var table []entry
	c := wire.Decoder(wire.NewReader(huge))
	wire.Slice(c, &table, 3, func(*entry) {})
	if c.Err() == nil || table != nil {
		t.Fatalf("a count of 2^63-1 over 3 bytes: %d entries, err %v", len(table), c.Err())
	}
	if n := wire.NewReader([]byte{5}).Count(0); n != 0 {
		t.Fatalf("a zero minimum width must count as one byte: Count returned %d over no input", n)
	}
}

// TestStickyError: after the first failure every read, of every kind,
// yields a zero value, tables stay nil, and the error is the first one.
func TestStickyError(t *testing.T) {
	var w wire.Writer
	w.U64(7)
	w.Buf = append(w.Buf, 2) // an invalid bool
	w.U64(99)                // sound values behind it, which must not be read
	w.Float(1.5)
	w.Str("tail")

	rd := wire.NewReader(w.Buf)
	c := wire.Decoder(rd)
	var head uint64
	c.U64(&head)
	if head != 7 || c.Err() != nil {
		t.Fatalf("before the failure: %d, %v", head, c.Err())
	}
	flag := true
	c.Bool(&flag)
	first := c.Err()
	if first == nil || flag {
		t.Fatalf("an invalid bool read as %v with error %v", flag, first)
	}

	// Every flag reads false, so the parts behind one are not walked.
	r := record{U64: 1, I64: 1, Float: 1, Bytes: []byte{1}, Str: "x", U8: 1, U16: 1, Int: 1, Bool: true,
		Idx: 1, Node: 1, Table: []entry{{}}, HasOpt: true}
	r.code(c)
	if !reflect.DeepEqual(r, record{}) {
		t.Fatalf("reads after the failure left %+v", r)
	}
	if c.Present(true) || c.Len(4, 1) != 0 {
		t.Fatal("Present or Len succeeded after the failure")
	}
	if c.Err() != first {
		t.Fatalf("the sticky error moved: %v, first %v", c.Err(), first)
	}
	if enc := wire.Encoder(&wire.Writer{}); enc.Err() != nil || enc.Decoding() {
		t.Fatal("an encoder reports a failure or the wrong direction")
	}
}

// TestTableStopsAtFirstFailure: a table with a bad entry mid-way decodes
// to nil and walks no entry past the failure.
func TestTableStopsAtFirstFailure(t *testing.T) {
	var w wire.Writer
	w.U64(3)
	w.U16(1)
	w.U64(1 << 20) // overflows the second entry
	w.U16(3)
	c := wire.Decoder(wire.NewReader(w.Buf))
	calls := 0
	var shorts []uint16
	wire.Slice(c, &shorts, 1, func(p *uint16) { calls++; c.U16(p) })
	if c.Err() == nil || shorts != nil || calls != 2 {
		t.Fatalf("err %v, %d entries, %d element calls (want an error, nil, 2)", c.Err(), len(shorts), calls)
	}
}

// TestRefusedValues: what the writer cannot have produced is an error, not
// a silently wrapped value.
func TestRefusedValues(t *testing.T) {
	uvarint := func(v uint64) []byte { w := wire.Writer{}; w.U64(v); return w.Buf }
	varint := func(v int64) []byte { w := wire.Writer{}; w.I64(v); return w.Buf }
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*wire.Reader)
		ok   bool
	}{
		{"u16 max", uvarint(math.MaxUint16), func(r *wire.Reader) { r.U16() }, true},
		{"u16 overflow", uvarint(math.MaxUint16 + 1), func(r *wire.Reader) { r.U16() }, false},
		{"int max", varint(math.MaxInt32), func(r *wire.Reader) { r.Int() }, true},
		{"int min", varint(math.MinInt32), func(r *wire.Reader) { r.Int() }, true},
		{"int overflow", varint(math.MaxInt32 + 1), func(r *wire.Reader) { r.Int() }, false},
		{"int underflow", varint(math.MinInt32 - 1), func(r *wire.Reader) { r.Int() }, false},
		{"bool 0", []byte{0}, func(r *wire.Reader) { r.Bool() }, true},
		{"bool 1", []byte{1}, func(r *wire.Reader) { r.Bool() }, true},
		{"bool 2", []byte{2}, func(r *wire.Reader) { r.Bool() }, false},
		{"bool 0xff", []byte{0xff}, func(r *wire.Reader) { r.Bool() }, false},
		{"uvarint truncated", []byte{0x80}, func(r *wire.Reader) { r.U64() }, false},
		{"uvarint 11 bytes", bytes.Repeat([]byte{0x80}, 11), func(r *wire.Reader) { r.U64() }, false},
		{"float truncated", make([]byte, 7), func(r *wire.Reader) { r.Float() }, false},
		{"bytes past the end", []byte{4, 1, 2, 3}, func(r *wire.Reader) { r.Bytes() }, false},
		{"byte at the end", nil, func(r *wire.Reader) { r.U8() }, false},
		{"uint8 max", uvarint(math.MaxUint8), func(r *wire.Reader) { var v hops; wire.Uint(wire.Decoder(r), &v) }, true},
		{"uint8 overflow", uvarint(math.MaxUint8 + 1), func(r *wire.Reader) { var v hops; wire.Uint(wire.Decoder(r), &v) }, false},
		{"int16 min", varint(math.MinInt16), func(r *wire.Reader) { var v drift; wire.Signed(wire.Decoder(r), &v) }, true},
		{"int16 underflow", varint(math.MinInt16 - 1), func(r *wire.Reader) { var v drift; wire.Signed(wire.Decoder(r), &v) }, false},
		{"int16 overflow", varint(math.MaxInt16 + 1), func(r *wire.Reader) { var v drift; wire.Signed(wire.Decoder(r), &v) }, false},
	} {
		r := wire.NewReader(tc.in)
		tc.read(r)
		if (r.Err() == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok=%v", tc.name, r.Err(), tc.ok)
		}
	}
}

// TestTape: one Tape packs records back to back into a caller's slice and
// walks them again from any record's offset, without allocating once its
// slice has grown; an offset past the end is an error.
func TestTape(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	want := make([]entry, 50)
	var tp wire.Tape
	var buf []byte
	var offs []int
	for i := range want {
		want[i] = randEntry(rng)
		offs = append(offs, len(buf))
		codeEntry(tp.Encoder(buf))(&want[i])
		buf = tp.Encoded()
	}
	for _, start := range []int{0, 17, 49} {
		off := offs[start]
		for i := start; i < len(want); i++ {
			var got entry
			c := tp.Decoder(buf, off)
			codeEntry(c)(&got)
			if c.Err() != nil || got != want[i] {
				t.Fatalf("entry %d from %d: got %+v (%v), want %+v", i, start, got, c.Err(), want[i])
			}
			off = tp.Offset()
		}
		if off != len(buf) {
			t.Fatalf("walk from %d ended at %d of %d bytes", start, off, len(buf))
		}
	}
	if c := tp.Decoder(buf, len(buf)+1); func() error { var e entry; codeEntry(c)(&e); return c.Err() }() == nil {
		t.Fatal("a decoder past the end read without error")
	}
	e := want[0]
	if allocs := testing.AllocsPerRun(100, func() {
		codeEntry(tp.Encoder(buf[:0]))(&e)
		codeEntry(tp.Decoder(buf, 0))(&e)
	}); allocs != 0 {
		t.Fatalf("a walk over a Tape allocates %v times", allocs)
	}
}
