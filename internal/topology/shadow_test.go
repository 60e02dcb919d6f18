package topology

import (
	"math"
	"math/rand"
	"testing"

	"github.com/digs-net/digs/internal/phy"
)

// oracleRSS is buildRSSCache's formula with the shadowing drawn from a
// math/rand source seeded with the pair seed.
func oracleRSS(t *Topology, a, b int) float64 {
	if a == b {
		return -math.MaxFloat64
	}
	lo, hi := min(a, b), max(a, b)
	seed := t.shadowSeed*1000003 + int64(lo)*8191 + int64(hi)
	shadow := rand.New(rand.NewSource(seed)).NormFloat64() * t.ShadowSigmaDB
	loss := phy.PathLossDB(t.Distance(NodeID(a), NodeID(b)), t.Floors(NodeID(a), NodeID(b)))
	return phy.RSS(t.TxPowerDBm, loss, shadow)
}

func requireOracleRSS(t *testing.T, name string, topo *Topology) {
	t.Helper()
	for a := 1; a <= topo.N(); a++ {
		for b := 1; b <= topo.N(); b++ {
			got, want := topo.RSS(NodeID(a), NodeID(b)), oracleRSS(topo, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: RSS(%d,%d) = %v, math/rand's draw gives %v", name, a, b, got, want)
			}
		}
	}
}

// TestShadowDrawOracle: every named dense deployment's RSS matrix is, bit
// for bit, the formula over math/rand's first NormFloat64 for each pair
// seed — half testbeds included, whose Subset renumbering keeps drawing
// from the parent's seed — and a retuned radio applies its sigma and power
// after the draw.
func TestShadowDrawOracle(t *testing.T) {
	named := map[string]func() *Topology{
		"testbed-a":      TestbedA,
		"testbed-b":      TestbedB,
		"half-testbed-a": HalfTestbedA,
		"half-testbed-b": HalfTestbedB,
		"random-150":     func() *Topology { return NewRandom(150, 300, 300, 7) },
	}
	for name, build := range named {
		requireOracleRSS(t, name, build())
	}

	// Same name, same seed, different radio: the draws are shared, the
	// matrix is not.
	loud := TestbedA()
	loud.ShadowSigmaDB, loud.TxPowerDBm = 9, 3
	requireOracleRSS(t, "testbed-a retuned", loud)
	if loud.RSS(3, 4) == TestbedA().RSS(3, 4) {
		t.Fatal("retuned testbed-a reads the stock matrix")
	}
}
