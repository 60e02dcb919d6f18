package mac

import (
	"math"
	"math/rand"
	"testing"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
)

// addLoop is what addRepeated replaces.
func addLoop(acc, e float64, k int64) float64 {
	for ; k > 0; k-- {
		acc += e
	}
	return acc
}

func requireSameBits(t *testing.T, what string, acc, e float64, k int64) {
	t.Helper()
	if got, want := addRepeated(acc, e, k), addLoop(acc, e, k); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: addRepeated(%x, %x, %d) = %x, the loop gives %x (%g, %g)", what,
			math.Float64bits(acc), math.Float64bits(e), k, math.Float64bits(got), math.Float64bits(want), got, want)
	}
}

// TestAddRepeatedEdges names the places where the closed form must step
// plainly, or may not step at all.
func TestAddRepeatedEdges(t *testing.T) {
	ulp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }
	even := 1.0 + 6*ulp(1.0) // even mantissa
	odd := 1.0 + 7*ulp(1.0)
	belowTwo := math.Nextafter(2, 0)
	cases := []struct {
		what   string
		acc, e float64
	}{
		{"acc == 0", 0, 3.3e-5},
		{"acc < e", 1e-7, 3.3e-5},
		{"acc == e", 3.3e-5, 3.3e-5},
		{"one step below a power of two", belowTwo, 3 * ulp(1.0)},
		{"one step below a power of two, e rounding up", belowTwo, 2.6 * ulp(1.0)},
		{"half an ulp on an even mantissa: the tie stays", even, ulp(1.0) / 2},
		{"half an ulp on an odd mantissa: the tie moves, then stays", odd, ulp(1.0) / 2},
		{"an ulp and a half: ties alternate", even, 1.5 * ulp(1.0)},
		{"an ulp and a half on an odd mantissa", odd, 1.5 * ulp(1.0)},
		{"under half an ulp: nothing moves", odd, 0.49 * ulp(1.0)},
		{"just over half an ulp", odd, 0.51 * ulp(1.0)},
		{"subnormal e", 1, 5e-324},
		{"subnormal e on a tiny acc", 3e-308, 4e-320},
		{"subnormal acc", 4e-320, 5e-324},
		{"acc whose ulp is subnormal", 2.3e-308, 1e-310},
		{"e == 0", 1.5, 0},
		{"negative e", 1.5, -1e-3},
		{"negative acc", -1.5, 1e-3},
		{"infinite acc", math.Inf(1), 1},
		{"NaN", math.NaN(), 1},
		{"huge acc", math.MaxFloat64, 1e292},
		{"crossing many binades", 1e-3, 0.7},
	}
	for _, c := range cases {
		for _, k := range []int64{0, 1, 2, 3, 7, 499, 500, 3000} {
			requireSameBits(t, c.what, c.acc, c.e, k)
		}
	}
	if got := addRepeated(7, 1e-300, 1<<62); got != 7 {
		t.Fatalf("2^62 additions under half an ulp moved 7 to %g (or were looped over)", got)
	}
}

// TestAddRepeatedMatchesLoop: random accumulators, terms and counts, by
// bits. Half of the cases are energy-like (acc is roughly a multiple of e);
// the rest spread both over 40 binades, so acc < e, e under an ulp of acc
// and binade crossings all occur.
func TestAddRepeatedMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const cases = 250_000
	jumped := 0
	for i := 0; i < cases; i++ {
		e := math.Ldexp(1+rng.Float64(), rng.Intn(40)-30)
		acc := math.Ldexp(1+rng.Float64(), rng.Intn(40)-30)
		if i%2 == 0 {
			acc = e * float64(rng.Intn(1_000_000)) * (1 + rng.Float64()/8)
		}
		if i%16 == 1 { // a term built from acc's own ulp: ties and near-ties
			u := math.Nextafter(acc, math.Inf(1)) - acc
			e = u * float64(rng.Intn(9)) / 2
		}
		k := rng.Int63n(3001)
		requireSameBits(t, "random", acc, e, k)
		if k > 100 {
			jumped++
		}
	}
	if jumped < cases/2 {
		t.Fatalf("only %d of %d cases were long enough to need the closed form", jumped, cases)
	}
}

// TestAccrueNapMatchesEndSlot: settling k skipped slots in either activity
// class leaves the node's counters where k EndSlot calls with an empty
// report of that class leave them, energy compared as bits — from a fresh
// node and from one with a history.
func TestAccrueNapMatchesEndSlot(t *testing.T) {
	for _, class := range []struct {
		activity phy.SlotActivity
		op       sim.RadioOp
	}{
		{phy.ActivitySleep, sim.Sleep()},
		{phy.ActivityScan, sim.RadioOp{Kind: sim.OpScan, Channel: 15}},
	} {
		settled := NewNode(3, false, &staticProto{id: 3, parent: 2}, DefaultConfig())
		stepped := NewNode(3, false, &staticProto{id: 3, parent: 2}, DefaultConfig())
		asn := sim.ASN(0)
		for _, k := range []int64{1, 499, 2, 500, 3000, 17, 123_456} {
			settled.AccrueNap(k, class.activity)
			for i := int64(0); i < k; i++ {
				stepped.EndSlot(asn, sim.SlotReport{Op: class.op, Activity: class.activity})
				asn++
			}
			// A slot of another class in between: the accumulator is not a
			// multiple of the term.
			for _, n := range []*Node{settled, stepped} {
				n.EndSlot(asn, sim.SlotReport{Op: sim.RadioOp{Kind: sim.OpRx}, Activity: phy.ActivityRxIdle})
			}
			asn++
			a, b := settled.Stats(), stepped.Stats()
			if math.Float64bits(a.EnergyJoules) != math.Float64bits(b.EnergyJoules) {
				t.Fatalf("activity %v after %d more slots: energy %x settled, %x stepped", class.activity, k,
					math.Float64bits(a.EnergyJoules), math.Float64bits(b.EnergyJoules))
			}
			if a != b {
				t.Fatalf("activity %v after %d more slots: settled %+v, stepped %+v", class.activity, k, a, b)
			}
		}
	}
}
