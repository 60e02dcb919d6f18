package phy

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPathLossMonotoneInDistance(t *testing.T) {
	prev := PathLossDB(1, 0)
	for d := 2.0; d < 200; d += 1.0 {
		cur := PathLossDB(d, 0)
		if cur <= prev {
			t.Fatalf("path loss not monotone at %.0fm: %.2f <= %.2f", d, cur, prev)
		}
		prev = cur
	}
}

func TestPathLossClampsBelowOneMetre(t *testing.T) {
	if got, want := PathLossDB(0.1, 0), PathLossDB(1, 0); got != want {
		t.Fatalf("sub-metre distance not clamped: got %.2f want %.2f", got, want)
	}
}

func TestPathLossFloorPenalty(t *testing.T) {
	same := PathLossDB(10, 0)
	cross := PathLossDB(10, 1)
	if cross-same != FloorAttenuationDB {
		t.Fatalf("floor penalty: got %.2f want %.2f", cross-same, FloorAttenuationDB)
	}
}

func TestPRRShape(t *testing.T) {
	tests := []struct {
		name string
		rss  float64
		lo   float64
		hi   float64
	}{
		{"strong link is perfect", -60, 1.0, 1.0},
		{"edge of good region", -86, 0.9, 1.0},
		{"grey region is intermediate", -90, 0.2, 0.6},
		{"below sensitivity is dead", -95, 0, 0},
		{"far below sensitivity is dead", -120, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := PRR(tt.rss)
			if p < tt.lo || p > tt.hi {
				t.Fatalf("PRR(%.1f) = %.3f, want in [%.2f, %.2f]", tt.rss, p, tt.lo, tt.hi)
			}
		})
	}
}

func TestPRRMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		// Constrain to a sane dBm range.
		lo = math.Mod(math.Abs(lo), 60) - 110
		hi = math.Mod(math.Abs(hi), 60) - 110
		if lo > hi {
			lo, hi = hi, lo
		}
		return PRR(lo) <= PRR(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkETX(t *testing.T) {
	if got := LinkETX(1.0); got != 1.0 {
		t.Fatalf("perfect link ETX = %.2f, want 1", got)
	}
	if got := LinkETX(0.5); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("half-PRR link ETX = %.2f, want 4", got)
	}
	if got := LinkETX(0); got != ETXUnreachable {
		t.Fatalf("dead link ETX = %.2f, want %v", got, ETXUnreachable)
	}
	if got := LinkETX(0.05); got != ETXUnreachable {
		t.Fatalf("near-dead link ETX = %.2f, want capped at %v", got, ETXUnreachable)
	}
}

func TestSIRdB(t *testing.T) {
	// With no interferers the SIR is signal minus noise floor.
	if got := SIRdB(-80, nil); math.Abs(got-18.0) > 1e-9 {
		t.Fatalf("no-interferer SIR = %.2f, want 18", got)
	}
	// A co-channel interferer at equal power pins SIR near 0.
	if got := SIRdB(-80, []float64{-80}); got > 0.1 || got < -0.1 {
		t.Fatalf("equal-power SIR = %.2f, want ~0", got)
	}
	// A much stronger interferer drives SIR strongly negative.
	if got := SIRdB(-80, []float64{-60}); got > -19 {
		t.Fatalf("strong-interferer SIR = %.2f, want <= -19", got)
	}
}

// sirRef is SIRdB as it was before the noise floor was converted once: both
// conversions of the floor made on every call.
func sirRef(signalDBm float64, interferersDBm []float64) float64 {
	total := math.Pow(10, NoiseFloorDBm/10)
	for _, i := range interferersDBm {
		total += math.Pow(10, i/10)
	}
	return signalDBm - 10*math.Log10(total)
}

// TestSIRdBBitsUnchanged: the cached noise floor changes no answer's bits,
// with no interferer (nil and empty) and with up to six, over the signal
// and interference powers the medium produces.
func TestSIRdBBitsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	power := func() float64 { return -110 + 100*rng.Float64() }
	interf := make([]float64, 0, 6)
	for i := 0; i < 100000; i++ {
		signal := power()
		interf = interf[:0]
		for n := rng.Intn(7); n > 0; n-- {
			interf = append(interf, power())
		}
		list := interf
		if len(list) == 0 && i%2 == 0 {
			list = nil
		}
		if got, want := SIRdB(signal, list), sirRef(signal, list); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SIRdB(%v, %v) = %v, the per-call conversion gives %v", signal, list, got, want)
		}
	}
}

// prrRef is PRR with the logistic evaluated at every RSS above sensitivity.
func prrRef(rssDBm float64) float64 {
	if rssDBm < SensitivityDBm {
		return 0
	}
	p := 1.0 / (1.0 + math.Exp(-(rssDBm+89.5)/1.1))
	switch {
	case p > 0.9999:
		return 1.0
	case p < 0.0001:
		return 0.0
	default:
		return p
	}
}

// TestPRRSaturatedBitsUnchanged: returning 1 from the saturation threshold
// up changes no answer's bits — over a million random RSS values across
// the medium's range (the ACK path's PRR(rss+1.5) included) and a sweep of
// ulp-sized and 1e-6 dB steps across the threshold.
func TestPRRSaturatedBitsUnchanged(t *testing.T) {
	check := func(rss float64) {
		if got, want := PRR(rss), prrRef(rss); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PRR(%v) = %v, the logistic gives %v", rss, got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1_000_000; i++ {
		rss := -100 * rng.Float64()
		check(rss)
		check(rss + 1.5)
	}
	for rss, i := float64(prrSaturatedDBm), 0; i < 1000; i++ {
		rss = math.Nextafter(rss, math.Inf(-1))
		check(rss)
	}
	for rss := prrSaturatedDBm - 1; rss <= prrSaturatedDBm+1; rss += 1e-6 {
		check(rss)
	}
	check(math.Inf(1))
	check(math.NaN())
}

func TestHopChannelCoversAllChannels(t *testing.T) {
	seen := make(map[Channel]bool)
	for asn := int64(0); asn < NumChannels; asn++ {
		ch := HopChannel(asn, 0)
		if !ch.Valid() {
			t.Fatalf("invalid channel %d at ASN %d", ch, asn)
		}
		seen[ch] = true
	}
	if len(seen) != NumChannels {
		t.Fatalf("hopping sequence covers %d channels, want %d", len(seen), NumChannels)
	}
}

func TestHopChannelOffsetShifts(t *testing.T) {
	for asn := int64(0); asn < 100; asn++ {
		if HopChannel(asn, 1) != HopChannel(asn+1, 0) {
			t.Fatalf("offset shift broken at ASN %d", asn)
		}
	}
}

func TestWiFiOverlap(t *testing.T) {
	// WiFi channel 1 (2412 MHz) blankets 802.15.4 channels 11-14.
	got := WiFiOverlap(1)
	want := []Channel{11, 12, 13, 14}
	if len(got) != len(want) {
		t.Fatalf("WiFiOverlap(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WiFiOverlap(1) = %v, want %v", got, want)
		}
	}
	// All three common WiFi channels together still leave some 802.15.4
	// channels clear (that is what makes channel hopping help).
	covered := make(map[Channel]bool)
	for _, wc := range []int{1, 6, 11} {
		for _, c := range WiFiOverlap(wc) {
			covered[c] = true
		}
	}
	if len(covered) >= NumChannels {
		t.Fatalf("WiFi 1/6/11 cover all %d channels; expected some clear", NumChannels)
	}
}

func TestEnergyOrdering(t *testing.T) {
	order := []SlotActivity{
		ActivitySleep, ActivityRxIdle, ActivityTx,
		ActivityRxFrame, ActivityTxAwaitAck, ActivityScan,
	}
	for i := 1; i < len(order); i++ {
		lo, hi := EnergyJoules(order[i-1]), EnergyJoules(order[i])
		if lo >= hi {
			t.Fatalf("energy not increasing: activity %d (%.2e J) >= activity %d (%.2e J)",
				order[i-1], lo, order[i], hi)
		}
	}
}

func TestEnergySleepMagnitude(t *testing.T) {
	// One slot asleep: 3 V * 21 uA * 10 ms = 0.63 uJ.
	got := EnergyJoules(ActivitySleep)
	if math.Abs(got-6.3e-7) > 1e-9 {
		t.Fatalf("sleep energy = %.3e J, want 6.3e-7", got)
	}
}

func TestEnergyScanMagnitude(t *testing.T) {
	// Full-slot listen: 3 V * 18.8 mA * 10 ms = 564 uJ.
	got := EnergyJoules(ActivityScan)
	if math.Abs(got-5.64e-4) > 1e-9 {
		t.Fatalf("scan energy = %.3e J, want 5.64e-4", got)
	}
}

func TestRadioOnTimeBounds(t *testing.T) {
	for a := ActivitySleep; a <= ActivityScan; a++ {
		on := RadioOnTime(a)
		if on < 0 || on > SlotDuration {
			t.Fatalf("activity %d on-time %v outside [0, %v]", a, on, SlotDuration)
		}
	}
}

func TestEnergyUnknownActivityIsZero(t *testing.T) {
	if EnergyJoules(SlotActivity(0)) != 0 {
		t.Fatal("unknown activity should cost zero energy")
	}
	if RadioOnTime(SlotActivity(99)) != 0 {
		t.Fatal("unknown activity should have zero on-time")
	}
}

// FuzzCaptures: Captures answers exactly what SIRdB says against the
// capture threshold, whether its bounds decide or it computes. The seeds sit
// 1e-12 dB either side of the threshold — inside the bounds' margin, so the
// computed path must decide — with 0 to 20 interferers, and either side of
// the upper bound's cut-off; the fuzzer adds any float bits, NaN and the
// infinities included, as the signal and as up to 20 interferers.
func FuzzCaptures(f *testing.F) {
	interferers := func(raw []byte) []float64 {
		var out []float64
		for len(raw) >= 8 && len(out) < 20 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		return out
	}
	encode := func(in []float64) []byte {
		var raw []byte
		for _, i := range in {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(i))
		}
		return raw
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 5, 20} {
		in := make([]float64, n)
		for k := range in {
			in[k] = -100 + 30*rng.Float64()
		}
		at := CaptureThresholdDB - SIRdB(0, in) // the signal whose SIR is the threshold
		for _, d := range []float64{-1e-12, 0, 1e-12} {
			f.Add(at+d, encode(in))
		}
		if n > 0 {
			strongest := slices.Max(in)
			for _, d := range []float64{-2e-9, -1e-9, 0, 1e-9} {
				f.Add(strongest+CaptureThresholdDB+d, encode(in))
			}
		}
	}
	f.Add(math.NaN(), encode([]float64{-90}))
	f.Add(-80.0, encode([]float64{math.Inf(1), math.NaN(), math.Inf(-1)}))
	f.Fuzz(func(t *testing.T, signal float64, raw []byte) {
		in := interferers(raw)
		if got, want := Captures(signal, in), SIRdB(signal, in) >= CaptureThresholdDB; got != want {
			t.Fatalf("Captures(%v, %v) = %v, SIRdB %v against threshold %v", signal, in, got, SIRdB(signal, in), CaptureThresholdDB)
		}
	})
}
