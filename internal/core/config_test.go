package core

import (
	"reflect"
	"testing"
)

// Within the paper envelope, ScaledConfig must not disturb the published
// evaluation configuration at all — the reproduction figures depend on it.
func TestScaledConfigPaperEnvelopeUnchanged(t *testing.T) {
	// 152 is the Section VII-D field itself: 150 devices plus 2 access points.
	for _, n := range []int{2, 50, 100, paperEnvelopeNodes, 152} {
		if got, want := ScaledConfig(2, n), DefaultConfig(2); !reflect.DeepEqual(got, want) {
			t.Fatalf("ScaledConfig(2, %d) = %+v, want DefaultConfig %+v", n, got, want)
		}
	}
	// One device more and the scaling rules engage.
	if got := ScaledConfig(2, 153); got.NeighborTimeout <= DefaultConfig(2).NeighborTimeout {
		t.Fatalf("ScaledConfig(2, 153) kept the paper NeighborTimeout %v", got.NeighborTimeout)
	}
}

// Beyond the envelope every produced configuration must still validate
// (pairwise-coprime slotframes) and follow the dimensioning rules.
func TestScaledConfigDimensioning(t *testing.T) {
	for _, tc := range []struct {
		nodes    int
		wantSync int64
	}{
		{302, 557},    // sync floor: never below the paper's 557
		{1002, 1009},  // smallest prime >= N+5
		{1998, 2003},  // at the cap
		{10004, 2003}, // capped: spatial reuse carries the wrap
		{100004, 2003},
	} {
		cfg := ScaledConfig(2, tc.nodes)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ScaledConfig(2, %d): %v", tc.nodes, err)
		}
		if cfg.SyncFrameLen != tc.wantSync {
			t.Errorf("ScaledConfig(2, %d).SyncFrameLen = %d, want %d",
				tc.nodes, cfg.SyncFrameLen, tc.wantSync)
		}
		if cfg.AppFrameLen < DefaultConfig(2).AppFrameLen {
			t.Errorf("ScaledConfig(2, %d).AppFrameLen = %d below default",
				tc.nodes, cfg.AppFrameLen)
		}
		if cfg.NeighborTimeout <= DefaultConfig(2).NeighborTimeout {
			t.Errorf("ScaledConfig(2, %d) kept the paper NeighborTimeout", tc.nodes)
		}
	}
}

// The sync==app collision bump must keep the triple coprime: around 8k
// nodes the app rule lands exactly on the 2003 sync cap.
func TestScaledConfigSyncAppCollision(t *testing.T) {
	for n := 7900; n <= 8100; n++ {
		cfg := ScaledConfig(2, n)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ScaledConfig(2, %d): %v", n, err)
		}
		if cfg.AppFrameLen == cfg.SyncFrameLen {
			t.Fatalf("ScaledConfig(2, %d): sync and app frames both %d", n, cfg.AppFrameLen)
		}
	}
}

func TestNextPrime(t *testing.T) {
	for _, tc := range []struct{ in, want int64 }{
		{-3, 2}, {0, 2}, {2, 2}, {3, 3}, {4, 5}, {250, 251}, {1007, 1009}, {2499, 2503},
	} {
		if got := nextPrime(tc.in); got != tc.want {
			t.Errorf("nextPrime(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
