package wire

// Coder walks a layout in one of two directions over the same calls: an
// encoding Coder writes what each pointer points at (and never writes
// through it: encoding shared state from several goroutines is safe), a
// decoding Coder fills it. A state type's layout is therefore one function
// — field order, widths and the minimum element width of every table are
// stated once, and the writer and the reader cannot disagree. All bounds
// checking is the Reader's: a decoding Coder fails exactly where the Reader
// does, the first failure sticks (Err), and every later call leaves zero
// values.
type Coder struct {
	w *Writer // set when encoding
	r *Reader // set when decoding
}

// Encoder returns a Coder that appends to w.
func Encoder(w *Writer) *Coder { return &Coder{w: w} }

// Decoder returns a Coder that consumes r.
func Decoder(r *Reader) *Coder { return &Coder{r: r} }

// Decoding reports the direction. A layout consults it only to allocate
// what is about to be decoded into; which fields are walked, and in what
// order, never depends on it.
func (c *Coder) Decoding() bool { return c.r != nil }

// Err returns the first decoding failure; nil when encoding.
func (c *Coder) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.Err()
}

func (c *Coder) U64(p *uint64) {
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

func (c *Coder) I64(p *int64) {
	if c.r != nil {
		*p = c.r.I64()
	} else {
		c.w.I64(*p)
	}
}

func (c *Coder) Float(p *float64) {
	if c.r != nil {
		*p = c.r.Float()
	} else {
		c.w.Float(*p)
	}
}

func (c *Coder) Bytes(p *[]byte) {
	if c.r != nil {
		*p = c.r.Bytes()
	} else {
		c.w.Bytes(*p)
	}
}

func (c *Coder) Str(p *string) {
	if c.r != nil {
		*p = c.r.Str()
	} else {
		c.w.Str(*p)
	}
}

func (c *Coder) U8(p *uint8) {
	if c.r != nil {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

func (c *Coder) U16(p *uint16) {
	if c.r != nil {
		*p = c.r.U16()
	} else {
		c.w.U16(*p)
	}
}

func (c *Coder) Int(p *int) {
	if c.r != nil {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

func (c *Coder) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// Index32 codes a 32-bit index as the unsigned varint of its uint32 bit
// pattern.
func (c *Coder) Index32(p *int32) {
	if c.r != nil {
		*p = int32(uint32(c.r.U64()))
	} else {
		c.w.U64(uint64(uint32(*p)))
	}
}

// Uvarint codes an int of a named type that travels as an unsigned varint
// (node IDs). Decoding converts without a range check.
func Uvarint[T ~int](c *Coder, p *T) {
	if c.r != nil {
		*p = T(c.r.U64())
	} else {
		c.w.U64(uint64(*p))
	}
}

// Present codes a presence flag: the argument when encoding, the flag read
// when decoding. The caller walks the optional part only when it returns
// true.
func (c *Coder) Present(present bool) bool {
	c.Bool(&present)
	return present
}

// Len codes a collection length: n when encoding, and when decoding the
// count read, which the Reader bounds by the remaining input at
// minElemBytes per element before anything is allocated (Reader.Count).
func (c *Coder) Len(n, minElemBytes int) int {
	if c.r != nil {
		return c.r.Count(minElemBytes)
	}
	c.w.U64(uint64(n))
	return n
}

// Slice codes a counted table: its length, then elem on every entry.
// minElemBytes is the narrowest wire form one entry can have — the one
// place that width is stated. An empty table decodes to nil.
func Slice[T any](c *Coder, p *[]T, minElemBytes int, elem func(*T)) {
	n := c.Len(len(*p), minElemBytes)
	if c.Decoding() && n == 0 {
		*p = nil
		return
	}
	Vector(c, p, n, elem)
}

// Vector codes n entries under a count the caller has already coded with
// Len (parallel vectors share one; a table behind a presence flag keeps
// its own). Unlike Slice, a decoded Vector is non-nil even at n = 0, so a
// present-but-empty table re-encodes as present. When encoding, n is the
// vector's own length. Decoding stops at the first failure and leaves nil.
func Vector[T any](c *Coder, p *[]T, n int, elem func(*T)) {
	if c.Decoding() {
		*p = make([]T, n)
	}
	for i := range *p {
		elem(&(*p)[i])
		if c.Err() != nil {
			*p = nil
			return
		}
	}
}

// Uint codes an unsigned integer of any width as an unsigned varint.
// Decoding fails on a value the type cannot hold.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Coder, p *T) {
	if c.r == nil {
		c.w.U64(uint64(*p))
		return
	}
	v := c.r.U64()
	if uint64(T(v)) != v {
		c.r.fail("wire: value %d overflows %T", v, *p)
		v = 0
	}
	*p = T(v)
}

// Signed codes a signed integer of any width as a zigzag varint.
// Decoding fails on a value the type cannot hold.
func Signed[T ~int8 | ~int16 | ~int32 | ~int64](c *Coder, p *T) {
	if c.r == nil {
		c.w.I64(int64(*p))
		return
	}
	v := c.r.I64()
	if int64(T(v)) != v {
		c.r.fail("wire: value %d overflows %T", v, *p)
		v = 0
	}
	*p = T(v)
}

// Tape is a Coder over a byte slice its owner keeps, for records packed
// outside a snapshot container (a job's telemetry backlog): reset between
// walks rather than rebuilt, one Tape encodes or decodes any number of
// them without allocating. The Coder it returns is valid until the next
// call.
type Tape struct {
	w Writer
	r Reader
	c Coder
}

// Encoder returns a Coder that appends to buf; Encoded returns the result.
func (t *Tape) Encoder(buf []byte) *Coder {
	t.w.Buf = buf
	t.c = Coder{w: &t.w}
	return &t.c
}

// Encoded returns the slice the last Encoder's walks appended to.
func (t *Tape) Encoded() []byte { return t.w.Buf }

// Decoder returns a Coder that consumes buf from offset off on; Offset
// reports how far its walks have read.
func (t *Tape) Decoder(buf []byte, off int) *Coder {
	t.r = Reader{buf: buf, off: min(off, len(buf))}
	if off > len(buf) {
		t.r.fail("wire: offset %d past the end of %d bytes", off, len(buf))
	}
	t.c = Coder{r: &t.r}
	return &t.c
}

// Offset returns the position the last Decoder's walks have read up to.
func (t *Tape) Offset() int { return t.r.off }
