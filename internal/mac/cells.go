package mac

import (
	"slices"

	"github.com/digs-net/digs/internal/sim"
)

// NextOffset returns the first slot at or after `after` that lands on the
// given offset (in [0, frameLen)) of a slotframe of length frameLen.
func NextOffset(after sim.ASN, frameLen, offset int64) sim.ASN {
	return after + Dist(after%frameLen, offset, frameLen)
}

// Dist returns how many slots lie from frame offset off forward to the
// given offset, both in [0, frameLen): 0 when they are equal. A stack that
// holds several cells of one slotframe takes after%frameLen once and adds
// the least distance.
func Dist(off, offset, frameLen int64) int64 {
	d := offset - off
	if d < 0 {
		d += frameLen
	}
	return d
}

// Cell is one entry of a Cells table: what the node does at one slot offset
// of a slotframe.
type Cell[V any] struct {
	Offset int64
	Val    V
}

// Cells holds a slotframe's scheduled cells as an offset-sorted table, at
// most one per offset. The slot loop asks "what is at this offset" on every
// Plan and "when is the next cell" on every nap decision, far more often
// than a stack's schedule changes, so stacks rebuild the table in place
// (Reset, then Put) and look it up by binary search: no map walk, no
// allocation once the table has reached its size.
//
// The lookups take a hint: the caller's own int, holding the index of its
// last hit. A node walks its frame forward — the next-cell question lands
// on the cell the following lookup asks for, and the one after it on the
// next index — so the hint usually names the answer, and checking it costs
// two comparisons where the search costs a walk down the table. A hint is
// checked before it is used, so one that went stale (the table was
// rebuilt, the node looked elsewhere) costs only the search; a nil hint
// always searches.
type Cells[V any] []Cell[V]

// search returns the index of the first cell at or past the offset,
// len(c) when there is none. Written out because it is the slot loop's
// hottest lookup: slices.BinarySearchFunc pays an indirect call per probe
// and measured 3x slower on tables of 3 and of 12 cells.
func (c Cells[V]) search(offset int64) int {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].Offset < offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find is search, trying the hinted index and the one after it first, and
// leaving the answer in the hint.
func (c Cells[V]) find(offset int64, hint *int) int {
	if hint == nil {
		return c.search(offset)
	}
	for i := *hint; i <= *hint+1; i++ {
		if uint(i) <= uint(len(c)) && (i == len(c) || c[i].Offset >= offset) && (i == 0 || c[i-1].Offset < offset) {
			*hint = i
			return i
		}
	}
	i := c.search(offset)
	*hint = i
	return i
}

// At returns the cell at exactly the offset.
func (c Cells[V]) At(offset int64, hint *int) (v V, ok bool) {
	if i := c.find(offset, hint); i < len(c) && c[i].Offset == offset {
		return c[i].Val, true
	}
	return v, false
}

// Reset empties the table for a rebuild, keeping its memory. The result is
// never nil, so a stack can let a nil table mean "not built yet".
func (c Cells[V]) Reset() Cells[V] {
	if c == nil {
		return Cells[V]{}
	}
	return c[:0]
}

// Put records v at the offset, replacing a cell already there, and returns
// the table.
func (c Cells[V]) Put(offset int64, v V) Cells[V] {
	i := c.search(offset)
	if i < len(c) && c[i].Offset == offset {
		c[i].Val = v
		return c
	}
	return slices.Insert(c, i, Cell[V]{Offset: offset, Val: v})
}

// Next returns the first slot at or after `after` that lands on one of the
// table's cells. ok is false for an empty table.
func (c Cells[V]) Next(after sim.ASN, frameLen int64, hint *int) (asn sim.ASN, ok bool) {
	d, ok := c.Dist(after%frameLen, frameLen, hint)
	return after + d, ok
}

// Dist is Next from frame offset off: the distance to the first cell at or
// past off, else to the first cell of the next frame. ok is false for an
// empty table. The hint is left on the cell found, which is the one At is
// asked for next.
func (c Cells[V]) Dist(off, frameLen int64, hint *int) (d int64, ok bool) {
	if len(c) == 0 {
		return 0, false
	}
	if i := c.find(off, hint); i < len(c) {
		return c[i].Offset - off, true
	}
	if hint != nil {
		*hint = 0
	}
	return frameLen - off + c[0].Offset, true
}

// DistExcept is Dist over the cells at offsets skip does not name: a stack
// whose own transmit cells take precedence over listen cells at the same
// offset asks it for the next listen cell it would actually plan.
func (c Cells[V]) DistExcept(off, frameLen int64, skip func(offset int64) bool) (d int64, ok bool) {
	i := c.search(off)
	for k := range c {
		j := (i + k) % len(c)
		if !skip(c[j].Offset) {
			return Dist(off, c[j].Offset, frameLen), true
		}
	}
	return 0, false
}
