package mac

import (
	"math/rand"
	"testing"

	"github.com/digs-net/digs/internal/sim"
)

// TestCellsAgainstMap drives a Cells table and a map through the same random
// puts and checks every lookup the slot loop makes against the map: At on
// every offset, Next from every slot of two frames against a forward scan.
func TestCellsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		frameLen := int64(1 + rng.Intn(40))
		var cells Cells[int]
		if cells.Reset() == nil {
			t.Fatal("Reset of a nil table is nil")
		}
		ref := map[int64]int{}
		for k := rng.Intn(12); k > 0; k-- {
			off, v := rng.Int63n(frameLen), rng.Int()
			cells = cells.Put(off, v) // a second Put at one offset replaces
			ref[off] = v
		}
		if len(cells) != len(ref) {
			t.Fatalf("table holds %d cells, map %d", len(cells), len(ref))
		}
		for off := int64(0); off < frameLen; off++ {
			v, ok := cells.At(off)
			if want, has := ref[off]; ok != has || v != want {
				t.Fatalf("At(%d) = %d,%v; map has %d,%v", off, v, ok, want, has)
			}
		}
		for after := sim.ASN(0); after < 2*frameLen; after++ {
			got, ok := cells.Next(after, frameLen)
			if ok != (len(ref) > 0) {
				t.Fatalf("Next on %d cells: ok %v", len(ref), ok)
			}
			if !ok {
				continue
			}
			want := after
			for _, has := ref[want%frameLen]; !has; _, has = ref[want%frameLen] {
				want++
			}
			if got != want {
				t.Fatalf("Next(%d) in a %d-slot frame = %d, scan finds %d", after, frameLen, got, want)
			}
			for off := range ref {
				if NextOffset(after, frameLen, off) < got {
					t.Fatalf("NextOffset(%d, %d, %d) precedes Next", after, frameLen, off)
				}
			}
		}
		if kept := cells.Reset(); len(kept) != 0 || cap(kept) != cap(cells) {
			t.Fatal("Reset did not keep the table's memory")
		}
	}
}
