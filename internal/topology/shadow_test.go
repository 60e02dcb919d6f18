package topology

import (
	"math"
	"sync"
	"testing"

	"github.com/digs-net/digs/internal/phy"
)

// resetShadowMemo empties the process-wide memo so a test starts cold.
func resetShadowMemo() {
	shadowDraws.Lock()
	shadowDraws.m = make(map[int64]float64)
	shadowDraws.Unlock()
}

// unmemoisedRSS is buildRSSCache's formula over drawShadow, the draw with
// the memo bypassed.
func unmemoisedRSS(t *Topology, a, b int) float64 {
	if a == b {
		return -math.MaxFloat64
	}
	lo, hi := min(a, b), max(a, b)
	shadow := drawShadow(t.shadowSeed*1000003+int64(lo)*8191+int64(hi)) * t.ShadowSigmaDB
	loss := phy.PathLossDB(t.Distance(NodeID(a), NodeID(b)), t.Floors(NodeID(a), NodeID(b)))
	return phy.RSS(t.TxPowerDBm, loss, shadow)
}

func requireRSSBits(t *testing.T, name string, topo *Topology) {
	t.Helper()
	for a := 1; a <= topo.N(); a++ {
		for b := 1; b <= topo.N(); b++ {
			got, want := topo.RSS(NodeID(a), NodeID(b)), unmemoisedRSS(topo, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: RSS(%d,%d) = %v through the memo, %v without", name, a, b, got, want)
			}
		}
	}
}

// TestShadowMemoBitIdentical: every named dense deployment's RSS matrix is
// the same, bit for bit, cold, warm and with the memo bypassed — half
// testbeds included, whose Subset renumbering keeps drawing from the
// parent's seed — and the memo keys on the pair seed, not on anything a
// caller may change after the draw.
func TestShadowMemoBitIdentical(t *testing.T) {
	named := map[string]func() *Topology{
		"testbed-a":      TestbedA,
		"testbed-b":      TestbedB,
		"half-testbed-a": HalfTestbedA,
		"half-testbed-b": HalfTestbedB,
		"random-150":     func() *Topology { return NewRandom(150, 300, 300, 7) },
	}
	resetShadowMemo()
	for _, pass := range []string{"cold", "warm"} {
		for name, build := range named {
			requireRSSBits(t, name+" "+pass, build())
		}
	}
	shadowDraws.RLock()
	n := len(shadowDraws.m)
	shadowDraws.RUnlock()
	if n == 0 || n > maxShadowDraws {
		t.Fatalf("memo holds %d draws after the named deployments, want 1..%d", n, maxShadowDraws)
	}

	// Same name, same seed, different radio: the draws are shared, the
	// matrix is not.
	loud := TestbedA()
	loud.ShadowSigmaDB, loud.TxPowerDBm = 9, 3
	requireRSSBits(t, "testbed-a retuned", loud)
	if loud.RSS(3, 4) == TestbedA().RSS(3, 4) {
		t.Fatal("retuned testbed-a reads the stock matrix: the memo keyed on more than the draw")
	}
}

// TestShadowMemoBounded: a full memo stops growing and keeps answering.
func TestShadowMemoBounded(t *testing.T) {
	resetShadowMemo()
	defer resetShadowMemo()
	shadowDraws.Lock()
	for i := int64(0); len(shadowDraws.m) < maxShadowDraws; i++ {
		shadowDraws.m[-1-i] = 0
	}
	shadowDraws.Unlock()
	requireRSSBits(t, "testbed-a on a full memo", TestbedA())
	shadowDraws.RLock()
	defer shadowDraws.RUnlock()
	if len(shadowDraws.m) != maxShadowDraws {
		t.Fatalf("memo grew to %d entries past its bound %d", len(shadowDraws.m), maxShadowDraws)
	}
}

// TestShadowMemoConcurrentBuilds: the campaign runner's workers and the
// server's jobs build the same testbed at the same time; under -race this
// is the memo's synchronisation test.
func TestShadowMemoConcurrentBuilds(t *testing.T) {
	resetShadowMemo()
	const builders = 4
	sums := make([]float64, builders)
	var wg sync.WaitGroup
	wg.Add(builders)
	for g := 0; g < builders; g++ {
		go func(g int) {
			defer wg.Done()
			topo := TestbedA()
			for a := 1; a <= topo.N(); a++ {
				for b := 1; b <= topo.N(); b++ {
					if a != b {
						sums[g] += topo.RSS(NodeID(a), NodeID(b))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < builders; g++ {
		if math.Float64bits(sums[g]) != math.Float64bits(sums[0]) {
			t.Fatalf("builder %d summed %v, builder 0 %v", g, sums[g], sums[0])
		}
	}
}
