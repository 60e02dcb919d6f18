package mac

import (
	"math/rand"
	"testing"

	"github.com/digs-net/digs/internal/sim"
)

// TestCellsAgainstMap drives a Cells table and a map through the same random
// puts and checks every lookup the slot loop makes against the map: At on
// every offset, Next from every slot of two frames against a forward scan,
// each with no hint, with the hint a forward walk leaves, and with a hint
// anywhere in or out of the table; and DistExcept against a forward scan
// that skips the excluded offsets.
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
		walk := rng.Intn(len(cells) + 1)
		hints := func() []*int {
			anywhere := rng.Intn(len(cells)+4) - 2
			return []*int{nil, &walk, &anywhere}
		}
		for off := int64(0); off < frameLen; off++ {
			for _, hint := range hints() {
				v, ok := cells.At(off, hint)
				if want, has := ref[off]; ok != has || v != want {
					t.Fatalf("At(%d) = %d,%v; map has %d,%v", off, v, ok, want, has)
				}
			}
		}
		skip := func(off int64) bool { return off%3 == 0 }
		for after := sim.ASN(0); after < 2*frameLen; after++ {
			want, wantExcept, has := after, sim.ASN(-1), len(ref) > 0
			for _, ok := ref[want%frameLen]; has && !ok; _, ok = ref[want%frameLen] {
				want++
			}
			for a := after; a < after+frameLen; a++ {
				if _, ok := ref[a%frameLen]; ok && !skip(a%frameLen) {
					wantExcept = a
					break
				}
			}
			for _, hint := range hints() {
				got, ok := cells.Next(after, frameLen, hint)
				if ok != has {
					t.Fatalf("Next on %d cells: ok %v", len(ref), ok)
				}
				if ok && got != want {
					t.Fatalf("Next(%d) in a %d-slot frame = %d, scan finds %d", after, frameLen, got, want)
				}
			}
			d, ok := cells.DistExcept(after%frameLen, frameLen, skip)
			if ok != (wantExcept >= 0) || ok && after+d != wantExcept {
				t.Fatalf("DistExcept from %d in a %d-slot frame = %d,%v, scan finds %d", after, frameLen, d, ok, wantExcept)
			}
			if !has {
				continue
			}
			for off := range ref {
				if NextOffset(after, frameLen, off) < want {
					t.Fatalf("NextOffset(%d, %d, %d) precedes Next", after, frameLen, off)
				}
			}
		}
		if kept := cells.Reset(); len(kept) != 0 || cap(kept) != cap(cells) {
			t.Fatal("Reset did not keep the table's memory")
		}
	}
}
