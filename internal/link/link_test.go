package link

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

func TestInitialETXPaperMapping(t *testing.T) {
	tests := []struct {
		name string
		rss  float64
		want float64
	}{
		{"strong link", -50, 1},
		{"threshold high", -60, 1},
		{"midpoint", -75, 2},
		{"threshold low", -90, 3},
		{"very weak", -100, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InitialETX(tt.rss); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("InitialETX(%.0f) = %.3f, want %.3f", tt.rss, got, tt.want)
			}
		})
	}
}

func TestInitialETXMonotoneAndBounded(t *testing.T) {
	f := func(rss float64) bool {
		rss = math.Mod(math.Abs(rss), 80) - 110 // -110..-30
		etx := InitialETX(rss)
		return etx >= 1 && etx <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for rss := -110.0; rss < -30; rss += 0.5 {
		if InitialETX(rss) < InitialETX(rss+0.5) {
			t.Fatalf("InitialETX not non-increasing in RSS at %.1f", rss)
		}
	}
}

func TestEstimatorObserveTracksSmoothedRSS(t *testing.T) {
	e := NewEstimator()
	e.Observe(5, -60)
	if got := e.ETX(5); got != 1 {
		t.Fatalf("seeded ETX = %.2f, want 1", got)
	}
	// Before any transmission history, further observations move the
	// estimate, but only by the smoothed (EWMA) RSS — a single bad
	// reading cannot swing it to the floor.
	e.Observe(5, -95)
	got := e.ETX(5)
	if got <= 1 {
		t.Fatalf("worse RSS did not raise pre-tx estimate: %.2f", got)
	}
	if got > 2 {
		t.Fatalf("single bad reading over-penalised the estimate: %.2f", got)
	}
	// After a transmission outcome, RSS observations stop moving the ETX.
	e.TxResult(5, true)
	before := e.ETX(5)
	e.Observe(5, -95)
	if e.ETX(5) != before {
		t.Fatalf("RSS observation overrode transmission history: %.2f -> %.2f",
			before, e.ETX(5))
	}
}

func TestEstimatorDeadLinkResurrectsPessimistically(t *testing.T) {
	p := AggressiveProfile()
	e := NewEstimator()
	e.Observe(5, -60)
	for i := 0; i < p.DeadThreshold; i++ {
		e.TxResult(5, false)
	}
	if got := e.ETX(5); got != phy.ETXUnreachable {
		t.Fatalf("ETX after %d consecutive failures = %.2f, want unreachable",
			p.DeadThreshold, got)
	}
	// A single decoded frame must NOT revive the link (nearly-dead links
	// occasionally decode one frame).
	e.Observe(5, -60)
	if got := e.ETX(5); got != phy.ETXUnreachable {
		t.Fatalf("one observation revived a dead link: %.2f", got)
	}
	// Sustained reception evidence does revive it, pessimistically.
	for i := 0; i < p.ResurrectObservations; i++ {
		e.Observe(5, -60)
	}
	got := e.ETX(5)
	if got >= phy.ETXUnreachable {
		t.Fatalf("resurrection did not revive the link: %.2f", got)
	}
	if got < p.FailSample/2 {
		t.Fatalf("resurrected link too optimistic: %.2f", got)
	}
}

func TestEstimatorUnknownNeighbour(t *testing.T) {
	e := NewEstimator()
	if got := e.ETX(9); got != phy.ETXUnreachable {
		t.Fatalf("unknown neighbour ETX = %.2f, want unreachable", got)
	}
	if e.Known(9) {
		t.Fatal("unknown neighbour reported as known")
	}
	// TxResult on an unknown neighbour must not create state.
	e.TxResult(9, true)
	if e.Known(9) {
		t.Fatal("TxResult created state for unknown neighbour")
	}
}

func TestEstimatorPenaltyAndRecovery(t *testing.T) {
	e := NewEstimator()
	e.Observe(5, -60)
	base := e.ETX(5)
	e.TxResult(5, false)
	penalised := e.ETX(5)
	if penalised <= base {
		t.Fatalf("no-ACK did not penalise: %.3f <= %.3f", penalised, base)
	}
	for i := 0; i < 100; i++ {
		e.TxResult(5, true)
	}
	if got := e.ETX(5); got > 1.05 {
		t.Fatalf("sustained ACKs did not recover the estimate: %.3f", got)
	}
}

func TestEstimatorFailureDrivesTowardUnreachable(t *testing.T) {
	e := NewEstimator()
	e.Observe(5, -60)
	for i := 0; i < 500; i++ {
		e.TxResult(5, false)
	}
	if got := e.ETX(5); got < AggressiveProfile().FailSample-0.5 {
		t.Fatalf("sustained failures left ETX at %.3f", got)
	}
	if got := e.ETX(5); got > phy.ETXUnreachable {
		t.Fatalf("ETX exceeded the unreachable cap: %.3f", got)
	}
}

func TestEstimatorETXNeverBelowOne(t *testing.T) {
	e := NewEstimator()
	e.Observe(5, -40)
	for i := 0; i < 50; i++ {
		e.TxResult(5, true)
	}
	if got := e.ETX(5); got < 1 {
		t.Fatalf("ETX dropped below 1: %.3f", got)
	}
}

func TestEstimatorForget(t *testing.T) {
	e := NewEstimator()
	e.Observe(5, -60)
	e.Forget(5)
	if e.Known(5) {
		t.Fatal("forgotten neighbour still known")
	}
}

func TestEstimatorNeighbors(t *testing.T) {
	e := NewEstimator()
	e.Observe(5, -60)
	e.Observe(7, -70)
	got := e.Neighbors()
	if len(got) != 2 {
		t.Fatalf("Neighbors() returned %d entries, want 2", len(got))
	}
	seen := map[int]bool{}
	for _, n := range got {
		seen[int(n)] = true
	}
	if !seen[5] || !seen[7] {
		t.Fatalf("Neighbors() = %v, want {5, 7}", got)
	}
}

// TestCursorMatchesETX: a cursor asked in ascending ID — known neighbours,
// the gaps between them, IDs past the last, some skipped — answers what
// ETX answers.
func TestCursorMatchesETX(t *testing.T) {
	e := NewEstimator()
	for _, n := range []topology.NodeID{3, 4, 9, 15, 16, 40} {
		e.Observe(n, -60-float64(n))
	}
	e.TxResult(9, false)
	for skip := topology.NodeID(1); skip <= 4; skip++ {
		c := e.Cursor()
		for n := topology.NodeID(1); n <= 45; n += skip {
			if got, want := c.ETX(n), e.ETX(n); got != want {
				t.Fatalf("stride %d: cursor ETX(%d) = %v, estimator %v", skip, n, got, want)
			}
		}
	}
}
