package link

import (
	"math/rand"
	"testing"

	"github.com/digs-net/digs/internal/topology"
)

// checkTable fails unless the table holds exactly the oracle's contents and
// walks them in strictly ascending ID.
func checkTable(t *testing.T, step int, tb *Table[int], ref map[topology.NodeID]int) {
	t.Helper()
	if tb.Len() != len(ref) {
		t.Fatalf("step %d: table holds %d entries, oracle %d", step, tb.Len(), len(ref))
	}
	for i, e := range tb.Entries() {
		if i > 0 && tb.At(i-1).ID >= e.ID {
			t.Fatalf("step %d: walk not strictly ascending at %d: %d then %d", step, i, tb.At(i-1).ID, e.ID)
		}
		if want, ok := ref[e.ID]; !ok || want != e.Val {
			t.Fatalf("step %d: entry %d = %d, oracle %d (held %v)", step, e.ID, e.Val, want, ok)
		}
	}
	for id := topology.NodeID(0); id <= 65; id++ {
		v, ok := tb.Get(id)
		want, has := ref[id]
		if ok != has || v != want {
			t.Fatalf("step %d: Get(%d) = %d,%v; oracle %d,%v", step, id, v, ok, want, has)
		}
		if p := tb.Ptr(id); (p != nil) != has || p != nil && *p != want {
			t.Fatalf("step %d: Ptr(%d) disagrees with the oracle", step, id)
		}
	}
}

// TestTableAgainstMap drives a Table and a map through the same random Put,
// Delete, in-place update and expiry-walk sequences over IDs 1..64 and
// checks the table against the map after every step.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		var tb Table[int]
		ref := map[topology.NodeID]int{}
		for step := 0; step < 400; step++ {
			id := topology.NodeID(1 + rng.Intn(64))
			switch op := rng.Intn(10); {
			case op < 5:
				v := rng.Intn(1000)
				tb.Put(id, v)
				ref[id] = v
			case op < 7:
				_, had := ref[id]
				if tb.Delete(id) != had {
					t.Fatalf("step %d: Delete(%d) reported %v", step, id, !had)
				}
				delete(ref, id)
			case op < 8:
				if p := tb.Ptr(id); p != nil {
					*p++
					ref[id]++
				}
			default: // expiry walk: drop every value under a threshold
				cut := rng.Intn(1000)
				for i := tb.Len() - 1; i >= 0; i-- {
					if tb.At(i).Val < cut {
						tb.DeleteAt(i)
					}
				}
				for k, v := range ref {
					if v < cut {
						delete(ref, k)
					}
				}
			}
			checkTable(t, step, &tb, ref)
		}
	}
}

// TestTableNil pins the nil/empty distinction snapshot layouts record: the
// zero Table is Nil, a written one is not, even once emptied, and Grow(0)
// makes an empty one.
func TestTableNil(t *testing.T) {
	var tb Table[int]
	if !tb.Nil() || tb.Len() != 0 {
		t.Fatal("zero Table is not Nil and empty")
	}
	if tb.Delete(3) || !tb.Nil() {
		t.Fatal("Delete on the zero Table made it non-Nil")
	}
	tb.Put(3, 1)
	tb.Delete(3)
	if tb.Nil() || tb.Len() != 0 {
		t.Fatal("an emptied Table reads as Nil")
	}
	var grown Table[int]
	if grown.Grow(0); grown.Nil() {
		t.Fatal("Grow(0) left the Table Nil")
	}
}

// TestTableZeroAllocs pins the slot path's table operations at zero
// allocations once the table has reached its size: Get, Ptr, a Put of a
// known ID, and an expiry walk that deletes and a re-insert that refills.
func TestTableZeroAllocs(t *testing.T) {
	var tb Table[neighborLike]
	for id := topology.NodeID(1); id <= 64; id += 2 {
		tb.Put(id, neighborLike{lastHeard: int64(id)})
	}
	var sink float64
	if n := testing.AllocsPerRun(200, func() {
		for id := topology.NodeID(0); id <= 65; id++ {
			if v, ok := tb.Get(id); ok {
				sink += v.etxw
			}
		}
	}); n != 0 {
		t.Fatalf("Get: %.1f allocations per run", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		for id := topology.NodeID(1); id <= 64; id += 2 {
			tb.Put(id, neighborLike{rank: 3, lastHeard: int64(id)})
			if p := tb.Ptr(id); p != nil {
				p.etxw++
			}
		}
	}); n != 0 {
		t.Fatalf("Put of a known ID: %.1f allocations per run", n)
	}
	asn := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		asn++
		for i := tb.Len() - 1; i >= 0; i-- {
			if e := tb.At(i); asn-e.Val.lastHeard > 40 && e.ID%4 == 1 {
				tb.DeleteAt(i)
			}
		}
		for id := topology.NodeID(1); id <= 64; id += 4 {
			tb.Put(id, neighborLike{lastHeard: asn})
		}
	}); n != 0 {
		t.Fatalf("expiry walk and refill: %.1f allocations per run", n)
	}
	_ = sink
}

// neighborLike has the shape of the routers' neighbour entries.
type neighborLike struct {
	rank      uint16
	etxw      float64
	lastHeard int64
}
