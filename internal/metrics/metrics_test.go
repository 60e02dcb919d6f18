package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/digs-net/digs/internal/sim"
)

func TestCollectorPDRAndLatency(t *testing.T) {
	c := NewCollector()
	c.Sent(1, 0, 100)
	c.Sent(1, 1, 600)
	c.Sent(2, 0, 100)
	c.Delivered(1, 0, 150) // 50 slots = 500 ms
	c.Delivered(2, 0, 300) // 200 slots = 2 s

	if got := c.PDR(); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("PDR = %v, want 2/3", got)
	}
	if got := c.FlowPDR(1); got != 0.5 {
		t.Fatalf("flow 1 PDR = %v, want 0.5", got)
	}
	if got := c.FlowPDR(2); got != 1.0 {
		t.Fatalf("flow 2 PDR = %v, want 1", got)
	}
	lats := c.Latencies()
	if len(lats) != 2 || lats[0] != 500*time.Millisecond || lats[1] != 2*time.Second {
		t.Fatalf("latencies = %v", lats)
	}
}

func TestCollectorIgnoresUnknownAndDuplicates(t *testing.T) {
	c := NewCollector()
	c.Sent(1, 0, 100)
	c.Delivered(9, 9, 200) // never sent
	if c.DeliveredCount() != 0 {
		t.Fatal("unknown delivery counted")
	}
	c.Delivered(1, 0, 200)
	c.Delivered(1, 0, 300) // duplicate, later
	if c.DeliveredCount() != 1 {
		t.Fatal("duplicate delivery counted")
	}
	if got := c.Latencies()[0]; got != time.Second {
		t.Fatalf("duplicate overwrote earliest arrival: %v", got)
	}
	// An earlier duplicate (redundant path) improves the latency.
	c.Delivered(1, 0, 150)
	if got := c.Latencies()[0]; got != 500*time.Millisecond {
		t.Fatalf("earlier arrival not kept: %v", got)
	}
}

func TestCollectorFlowPDRUnknownFlow(t *testing.T) {
	c := NewCollector()
	if got := c.FlowPDR(42); got != 0 {
		t.Fatalf("unknown flow PDR = %v, want 0", got)
	}
	if got := c.PDR(); got != 0 {
		t.Fatalf("empty collector PDR = %v, want 0", got)
	}
}

func TestDeliveredSeqs(t *testing.T) {
	c := NewCollector()
	for seq := uint16(0); seq < 5; seq++ {
		c.Sent(1, seq, 0)
	}
	c.Delivered(1, 1, 10)
	c.Delivered(1, 3, 10)
	seqs := c.DeliveredSeqs(1)
	if !seqs[1] || !seqs[3] || seqs[0] || seqs[2] || seqs[4] {
		t.Fatalf("DeliveredSeqs = %v", seqs)
	}
}

func TestPowerPerPacketMW(t *testing.T) {
	// 1 J over 100 s = 10 mW average; 20 packets -> 0.5 mW per packet.
	got := PowerPerPacketMW(1.0, 100*time.Second, 20)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("power per packet = %v, want 0.5", got)
	}
	if got := PowerPerPacketMW(1, time.Second, 0); got != 0 {
		t.Fatalf("zero deliveries gave %v, want the undefined-metric 0", got)
	}
}

func TestDutyCyclePerPacket(t *testing.T) {
	// 10 nodes, each on 1 s of a 100 s window -> 1% duty; 10 packets ->
	// 0.1% per packet.
	got := DutyCyclePerPacket(10*time.Second, 10, 100*time.Second, 10)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("duty per packet = %v, want 0.1", got)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("CDF has %d points", len(pts))
	}
	if pts[0].Value != 1 || pts[2].Value != 3 {
		t.Fatalf("CDF not sorted: %v", pts)
	}
	if pts[2].P != 1.0 || math.Abs(pts[0].P-1.0/3.0) > 1e-9 {
		t.Fatalf("CDF probabilities wrong: %v", pts)
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	tests := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		if got := Quantile(s, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Quantile(raw, pa) <= Quantile(raw, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplot(t *testing.T) {
	b := NewBoxplot([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Median != 3 || b.Max != 5 {
		t.Fatalf("boxplot = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("boxplot quartiles = %+v", b)
	}
}

func TestMeanAndFractionAbove(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
	if got := FractionAbove([]float64{1, 2, 3, 4}, 2.5); got != 0.5 {
		t.Fatalf("FractionAbove = %v, want 0.5", got)
	}
}

func TestDurationsToMillis(t *testing.T) {
	got := DurationsToMillis([]time.Duration{time.Second, 500 * time.Millisecond})
	if got[0] != 1000 || got[1] != 500 {
		t.Fatalf("DurationsToMillis = %v", got)
	}
}

func TestStdErr(t *testing.T) {
	if !math.IsNaN(StdErr([]float64{1})) {
		t.Fatal("stderr of one sample should be NaN")
	}
	// Samples 2,4,4,4,5,5,7,9: sd = 2.138, n = 8 -> se ~ 0.756.
	got := StdErr([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-0.7559) > 1e-3 {
		t.Fatalf("stderr = %v, want ~0.756", got)
	}
}

func TestSparkCDF(t *testing.T) {
	if got := SparkCDF(nil, "%.1f"); got != "(no samples)" {
		t.Fatalf("empty spark = %q", got)
	}
	got := SparkCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "%.0f")
	if len(got) == 0 || got[:4] != "p10=" {
		t.Fatalf("spark = %q", got)
	}
}

// TestCollectorCountsReconciliation covers the counters that reconcile the
// collector with a packet-lifecycle trace: out-of-window deliveries and
// duplicate deliveries are counted, never folded into PDR, and duplicate
// arrivals keep earliest-arrival latency semantics.
func TestCollectorCountsReconciliation(t *testing.T) {
	c := NewCollector()
	c.Sent(1, 1, 100)
	c.Sent(1, 2, 200)

	c.Delivered(1, 1, 400) // first arrival
	c.Delivered(1, 1, 450) // duplicate over a redundant route
	c.Delivered(1, 1, 350) // duplicate that arrived earlier: replaces latency
	c.Delivered(9, 9, 500) // generated outside the window

	if got := c.DeliveredCount(); got != 1 {
		t.Fatalf("delivered count = %d, want 1", got)
	}
	if got := c.DuplicateCount(); got != 2 {
		t.Fatalf("duplicate count = %d, want 2", got)
	}
	if got := c.OutOfWindowCount(); got != 1 {
		t.Fatalf("out-of-window count = %d, want 1", got)
	}
	if pdr := c.PDR(); pdr != 0.5 {
		t.Fatalf("PDR = %v, want 0.5 (duplicates and strays must not count)", pdr)
	}
	lats := c.Latencies()
	if len(lats) != 1 || lats[0] != sim.TimeAt(250) {
		t.Fatalf("latencies = %v, want one packet at 250 slots (earliest arrival)", lats)
	}
}
