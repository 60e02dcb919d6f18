// Package wire holds the low-level primitives of the snapshot wire format.
// Every package that owns checkpointable state writes its layout once,
// against a Coder, next to the struct that defines the state; the Writer
// and the bounded Reader underneath are named only by the snapshot
// container that frames the sections, and by Tape, which frames records
// packed into a caller's byte slice.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends values to Buf. Integers are varints (zigzag for signed),
// floats are fixed 8-byte little-endian IEEE bit patterns (Inf and NaN
// round-trip exactly), byte strings are length-prefixed.
type Writer struct {
	Buf []byte
}

func (w *Writer) U64(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) I64(v int64)  { w.Buf = binary.AppendVarint(w.Buf, v) }
func (w *Writer) Float(v float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v))
}
func (w *Writer) Bytes(b []byte) { w.U64(uint64(len(b))); w.Buf = append(w.Buf, b...) }
func (w *Writer) Str(s string)   { w.U64(uint64(len(s))); w.Buf = append(w.Buf, s...) }
func (w *Writer) U8(v uint8)     { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16)   { w.U64(uint64(v)) }
func (w *Writer) Int(v int)      { w.I64(int64(v)) }
func (w *Writer) Bool(v bool) {
	if v {
		w.Buf = append(w.Buf, 1)
	} else {
		w.Buf = append(w.Buf, 0)
	}
}

// Reader consumes what a Writer produced. It never panics on malformed
// input: every length and count is bounded by the bytes actually
// remaining, so truncated, corrupt or adversarial inputs fail with an
// error before any oversized allocation. The first failure sticks (see
// Err); every later read returns a zero value.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns how many bytes are still unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("wire: truncated or malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("wire: truncated or malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail("wire: truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail("wire: byte string of %d exceeds %d remaining at offset %d", n, r.Remaining(), r.off)
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return out
}

func (r *Reader) Str() string {
	return string(r.Bytes())
}

func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail("wire: truncated byte at offset %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	v := r.U64()
	if v > math.MaxUint16 {
		r.fail("wire: value %d overflows uint16", v)
		return 0
	}
	return uint16(v)
}

func (r *Reader) Int() int {
	v := r.I64()
	if v > math.MaxInt32 || v < math.MinInt32 {
		r.fail("wire: value %d overflows int", v)
		return 0
	}
	return int(v)
}

func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("wire: invalid bool at offset %d", r.off-1)
		return false
	}
}

// Count reads a collection length and bounds it by the remaining input:
// every element costs at least minElemBytes on the wire, so a count
// exceeding remaining/minElemBytes proves corruption before allocation.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.Remaining()/minElemBytes) {
		r.fail("wire: count %d exceeds remaining input at offset %d", n, r.off)
		return 0
	}
	return int(n)
}
