package link

import (
	"slices"

	"github.com/digs-net/digs/internal/topology"
)

// Entry is one row of a Table: a node ID and what the table holds for it.
type Entry[V any] struct {
	ID  topology.NodeID
	Val V
}

// Table is a per-node table keyed by node ID: the neighbour, child and
// report tables the stacks consult on every advertisement, transmission
// outcome and maintenance tick. Entries stay in ascending ID, are found by
// binary search and are inserted and deleted in place, so a walk is a loop
// over Entries in ID order, a lookup hashes nothing, and once the table has
// reached its size it allocates nothing.
//
// The zero Table is empty and Nil. Its first Put or Grow makes it non-Nil,
// and emptying it does not make it Nil again: the difference between a nil
// map and an emptied one, which some snapshot layouts record.
type Table[V any] struct {
	entries []Entry[V]
}

// search returns the index of the first entry at or past the ID, Len() when
// there is none. Written out like mac.Cells' search, for the same reason.
func (t *Table[V]) search(id topology.NodeID) int {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.entries) }

// Nil reports whether the table has not been written since it was declared
// or reset to the zero Table.
func (t *Table[V]) Nil() bool { return t.entries == nil }

// Entries returns the entries in ascending ID. Values may be updated through
// it; the slice is valid until the next Put, Delete or DeleteAt.
func (t *Table[V]) Entries() []Entry[V] { return t.entries }

// At returns the i-th entry in ascending ID.
func (t *Table[V]) At(i int) Entry[V] { return t.entries[i] }

// Get returns the value held for the ID.
func (t *Table[V]) Get(id topology.NodeID) (v V, ok bool) {
	if i := t.search(id); i < len(t.entries) && t.entries[i].ID == id {
		return t.entries[i].Val, true
	}
	return v, false
}

// Ptr returns the value held for the ID for update in place, nil when there
// is none. The pointer is valid until the next Put, Delete or DeleteAt.
func (t *Table[V]) Ptr(id topology.NodeID) *V {
	if i := t.search(id); i < len(t.entries) && t.entries[i].ID == id {
		return &t.entries[i].Val
	}
	return nil
}

// Put records v for the ID, replacing a value already there.
func (t *Table[V]) Put(id topology.NodeID, v V) {
	i := t.search(id)
	if i < len(t.entries) && t.entries[i].ID == id {
		t.entries[i].Val = v
		return
	}
	t.entries = slices.Insert(t.entries, i, Entry[V]{ID: id, Val: v})
}

// Delete removes the ID's entry and reports whether there was one.
func (t *Table[V]) Delete(id topology.NodeID) bool {
	i := t.search(id)
	if i == len(t.entries) || t.entries[i].ID != id {
		return false
	}
	t.DeleteAt(i)
	return true
}

// DeleteAt removes the i-th entry. An expiry walk goes from the last entry
// down, so that a deletion moves no entry it has yet to visit.
func (t *Table[V]) DeleteAt(i int) { t.entries = slices.Delete(t.entries, i, i+1) }

// Grow makes room for n more entries; afterwards the table is not Nil.
func (t *Table[V]) Grow(n int) {
	if t.entries == nil {
		t.entries = make([]Entry[V], 0, n)
		return
	}
	t.entries = slices.Grow(t.entries, n)
}
