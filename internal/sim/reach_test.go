package sim

import (
	"math"
	"testing"

	"github.com/digs-net/digs/internal/phy"
)

// TestFadeReachSkipsNoHearing: a fading draw the sparse gather skips, its
// first uniform above reachOf(mean, sigma), could not have been heard. For
// means from the prune floor (sensitivity less the 6 dB guard band) up past
// sensitivity — an ulp from it, and inside and at the 1e-9 dB margin —, for
// sigma 0, tiny, the 2 dB default, large and negative, and for first
// uniforms from 2^-53 up through the floats and the uniform grid points just
// above each reach, the draw's largest and smallest values (its radius
// times ±1) leave the link below sensitivity. Faded links never consult the
// table; TestSparseGatherMatchesListenerScan holds the gather, fades that
// lift and sink links and a sigma that changes mid-run included, to
// finished draws.
func TestFadeReachSkipsNoHearing(t *testing.T) {
	const grid = 1 << 53 // detrand.Uniform's values are k/grid, k = 1..grid
	sens := phy.SensitivityDBm
	var means []float64
	for k := 0; k <= 800; k++ {
		means = append(means, sens-6+float64(k)*0.01)
	}
	for _, d := range []float64{0, 1e-12, 1e-9, 1.5e-9, 2e-9, 3e-9, 1e-6} {
		means = append(means, sens-d, sens+d)
	}
	means = append(means, math.Nextafter(sens, math.Inf(-1)), math.Nextafter(sens, math.Inf(1)))

	skipped, kept := 0, 0
	for _, sigma := range []float64{0, 1e-12, 1e-6, 0.5, 2, 6, 1e3, -2} {
		for _, mean := range means {
			reach := reachOf(mean, sigma)
			us := []float64{1.0 / grid, 0.25, 0.5, 1}
			if reach > 0 && reach < 1 {
				u, g := reach, math.Floor(reach*grid)
				for k := 0; k < 4; k++ {
					u = math.Nextafter(u, 2)
					us = append(us, u, (g+1+float64(k))/grid)
				}
			}
			for _, u1 := range us {
				if !(u1 > reach) {
					kept++
					continue
				}
				skipped++
				r := math.Sqrt(-2 * math.Log(u1)) // detrand.NormAt's radius
				for _, c := range []float64{1, -1} {
					if rss := mean + r*c*sigma; rss >= sens {
						t.Fatalf("mean %v dBm, sigma %v: the draw with u1 %v (reach %v) is skipped, but reaches %v dBm",
							mean, sigma, u1, reach, rss)
					}
				}
			}
		}
	}
	if skipped == 0 || kept == 0 {
		t.Fatalf("%d draws skipped, %d kept: a side is never exercised", skipped, kept)
	}
}
