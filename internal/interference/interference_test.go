package interference

import (
	"strconv"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func TestWiFiJammerChannelsAndDuty(t *testing.T) {
	topo := topology.TestbedA()
	j := NewWiFiJammer(topo, topo.SuggestedJammers[0], 6, 1)

	inBand, outOfBand := 0, 0
	const slots = 20000
	for asn := sim.ASN(0); asn < slots; asn++ {
		if j.ActiveOn(asn, 17) { // WiFi ch6 covers 802.15.4 ch 16..19
			inBand++
		}
		if j.ActiveOn(asn, 26) { // far outside
			outOfBand++
		}
	}
	if outOfBand != 0 {
		t.Fatalf("WiFi jammer active on non-overlapping channel %d times", outOfBand)
	}
	duty := float64(inBand) / slots
	if duty < 0.25 || duty > 0.6 {
		t.Fatalf("WiFi jammer duty cycle %.2f, want streaming-like 0.25..0.6", duty)
	}
}

func TestWiFiJammerDeterministicPerSlot(t *testing.T) {
	topo := topology.TestbedA()
	j := NewWiFiJammer(topo, 10, 1, 7)
	for asn := sim.ASN(0); asn < 1000; asn++ {
		for _, ch := range []phy.Channel{11, 12, 13, 14} {
			if j.ActiveOn(asn, ch) != j.ActiveOn(asn, ch) {
				t.Fatalf("jammer activity not deterministic at ASN %d ch %d", asn, ch)
			}
		}
	}
}

func TestBluetoothJammerSparseButBandWide(t *testing.T) {
	topo := topology.TestbedA()
	j := NewBluetoothJammer(topo, 10, 3)
	const slots = 20000
	for ch := phy.Channel(phy.FirstChannel); ch <= phy.LastChannel; ch++ {
		hits := 0
		for asn := sim.ASN(0); asn < slots; asn++ {
			if j.ActiveOn(asn, ch) {
				hits++
			}
		}
		rate := float64(hits) / slots
		if rate < 0.10 || rate > 0.35 {
			t.Fatalf("Bluetooth hit rate on ch %d is %.2f, want sparse 0.10..0.35", ch, rate)
		}
	}
}

func TestCoojaDisturberPeriod(t *testing.T) {
	topo := topology.NewRandom(150, 300, 300, 7)
	d := NewCoojaDisturber(topo, 10, 0)
	fiveMin := sim.SlotsFor(5 * time.Minute)
	if !d.ActiveOn(0, 12) {
		t.Fatal("disturber should start in the on-phase")
	}
	if d.ActiveOn(fiveMin, 12) {
		t.Fatal("disturber should be off in the second 5-minute phase")
	}
	if !d.ActiveOn(2*fiveMin, 12) {
		t.Fatal("disturber should be on again in the third phase")
	}
	// A four-channel block, not the full band.
	covered := 0
	for ch := phy.Channel(phy.FirstChannel); ch <= phy.LastChannel; ch++ {
		if d.ActiveOn(0, ch) {
			covered++
		}
	}
	if covered != 4 {
		t.Fatalf("disturber covers %d channels, want 4", covered)
	}
}

func TestDisturberPhaseStagger(t *testing.T) {
	topo := topology.NewRandom(150, 300, 300, 7)
	d0 := NewCoojaDisturber(topo, 10, 0)
	d3 := NewCoojaDisturber(topo, 11, 3)
	// Compare each on a channel it covers (blocks differ per phase).
	differ := false
	for asn := sim.ASN(0); asn < sim.SlotsFor(20*time.Minute); asn += 100 {
		if d0.ActiveOn(asn, 12) != d3.ActiveOn(asn, 24) {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("staggered disturbers toggle identically")
	}
}

func TestJammerPowerFallsWithDistance(t *testing.T) {
	topo := topology.TestbedA()
	j := NewWiFiJammer(topo, 10, 1, 1)
	// Find a near and a far node.
	var near, far topology.NodeID
	nearD, farD := 1e9, 0.0
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		if id == 10 {
			continue
		}
		d := topo.Distance(10, id)
		if d < nearD {
			nearD, near = d, id
		}
		if d > farD {
			farD, far = d, id
		}
	}
	if j.PowerAtDBm(near) <= j.PowerAtDBm(far) {
		t.Fatalf("jammer power at %.0fm (%.1f dBm) <= at %.0fm (%.1f dBm)",
			nearD, j.PowerAtDBm(near), farD, j.PowerAtDBm(far))
	}
	if got := j.PowerAtDBm(10); got != -7 {
		t.Fatalf("co-located jammer power = %.1f, want TX power -7", got)
	}
}

func TestJammerDisruptsNearbyLink(t *testing.T) {
	// End-to-end: a perfect link with a co-channel jammer next to the
	// receiver loses most frames on jammed channels while an un-jammed
	// channel stays clean.
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 1)
	jamNode := topology.NodeID(10)
	// Transmit from the closest neighbour of node 10's closest neighbour
	// to keep geometry simple: use suggested source and its AP.
	j := NewWiFiJammer(topo, jamNode, 1, 1) // covers ch 11..14
	nw.AddInterferer(j)

	// Pick receiver = node nearest the jammer, sender = nearest to that.
	rxID := nearestTo(topo, jamNode)
	txID := nearestTo(topo, rxID)

	countDelivered := func(ch phy.Channel) int {
		nw2 := sim.NewNetwork(topo, 1)
		nw2.AddInterferer(j)
		frame := &sim.Frame{Kind: sim.KindData, Src: txID, Dst: rxID}
		delivered := 0
		tx := &planDevice{id: txID, op: sim.RadioOp{Kind: sim.OpTx, Channel: ch, Frame: frame}}
		rx := &planDevice{id: rxID, op: sim.RadioOp{Kind: sim.OpRx, Channel: ch},
			onRx: func() { delivered++ }}
		if err := nw2.Attach(tx); err != nil {
			t.Fatal(err)
		}
		if err := nw2.Attach(rx); err != nil {
			t.Fatal(err)
		}
		nw2.Run(3000)
		return delivered
	}

	jammed := countDelivered(12)
	clear := countDelivered(25)
	if clear < 2400 {
		t.Fatalf("clear channel delivered only %d/3000", clear)
	}
	if jammed > (clear*6)/10 {
		t.Fatalf("jammed channel delivered %d/3000 vs clear %d; jammer too weak", jammed, clear)
	}
}

func nearestTo(topo *topology.Topology, id topology.NodeID) topology.NodeID {
	bestD := 1e18
	var best topology.NodeID
	for i := 1; i <= topo.N(); i++ {
		n := topology.NodeID(i)
		if n == id {
			continue
		}
		if d := topo.Distance(id, n); d < bestD {
			bestD, best = d, n
		}
	}
	return best
}

type planDevice struct {
	id   topology.NodeID
	op   sim.RadioOp
	onRx func()
}

func (d *planDevice) ID() topology.NodeID      { return d.id }
func (d *planDevice) Plan(sim.ASN) sim.RadioOp { return d.op }
func (d *planDevice) EndSlot(_ sim.ASN, rep sim.SlotReport) {
	if rep.Received != nil && d.onRx != nil {
		d.onRx()
	}
}

func TestWindowGatesInterferer(t *testing.T) {
	topo := topology.TestbedA()
	j := NewWiFiJammer(topo, 10, 1, 1)
	w := &Window{Source: j, StartASN: 100, StopASN: 200}
	// Find a slot where the raw jammer is active inside the window.
	activeInside := false
	for asn := sim.ASN(100); asn < 200; asn++ {
		if j.ActiveOn(asn, 12) {
			if !w.ActiveOn(asn, 12) {
				t.Fatalf("window suppressed an in-range slot %d", asn)
			}
			activeInside = true
		}
	}
	if !activeInside {
		t.Fatal("jammer never active inside the window")
	}
	for asn := sim.ASN(0); asn < 100; asn++ {
		if w.ActiveOn(asn, 12) {
			t.Fatalf("window active before start at %d", asn)
		}
	}
	for asn := sim.ASN(200); asn < 300; asn++ {
		if w.ActiveOn(asn, 12) {
			t.Fatalf("window active after stop at %d", asn)
		}
	}
	// Zero stop means open-ended.
	open := &Window{Source: j, StartASN: 100}
	found := false
	for asn := sim.ASN(10000); asn < 10500 && !found; asn++ {
		found = open.ActiveOn(asn, 12)
	}
	if !found {
		t.Fatal("open-ended window never active")
	}
	if w.PowerAtDBm(10) != j.PowerAtDBm(10) {
		t.Fatal("window changed the power model")
	}
}

// TestChannelSetsMatchMapReference holds the jammers' channel bitmasks to
// the channel maps they replaced, built the same way, on every value a
// phy.Channel can take: each WiFi channel's overlap, and each disturber
// phase's four-channel block.
func TestChannelSetsMatchMapReference(t *testing.T) {
	topo := topology.TestbedA()
	same := func(what string, got channelSet, want map[phy.Channel]bool) {
		t.Helper()
		for ch := 0; ch < 256; ch++ {
			if got.has(phy.Channel(ch)) != want[phy.Channel(ch)] {
				t.Fatalf("%s: channel %d in the set %v, in the map %v", what, ch, got.has(phy.Channel(ch)), want[phy.Channel(ch)])
			}
		}
	}
	for wifi := 1; wifi <= 13; wifi++ {
		want := map[phy.Channel]bool{}
		for _, c := range phy.WiFiOverlap(wifi) {
			want[c] = true
		}
		same("WiFi channel "+strconv.Itoa(wifi), NewWiFiJammer(topo, 10, wifi, 1).channels, want)
	}
	for phase := -3; phase <= 20; phase++ {
		want := map[phy.Channel]bool{}
		first := phy.Channel(phy.FirstChannel + (phase*4)%(phy.NumChannels-3))
		for c := first; c < first+4 && c <= phy.LastChannel; c++ {
			want[c] = true
		}
		same("disturber phase "+strconv.Itoa(phase), NewCoojaDisturber(topo, 10, phase).channels, want)
	}
}
