// Package interference implements the controlled interference sources the
// paper evaluates under: JamLab-style jammers that emulate WiFi data
// streaming and Bluetooth traffic, the Cooja disturber nodes used in the
// 150-node simulation study, and a node-failure injector. All temporal
// behaviour is a pure deterministic function of (seed, slot), so repeated
// queries within a slot and repeated runs are consistent.
package interference

import (
	"time"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// splitmix64 is a tiny statelessly-seedable hash used to derive per-slot
// pseudo-random decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFloat returns a uniform [0,1) value derived from the inputs.
func hashFloat(seed uint64, asn sim.ASN, ch phy.Channel) float64 {
	h := splitmix64(seed ^ uint64(asn)*0x9e3779b97f4a7c15 ^ uint64(ch)<<48)
	return float64(h>>11) / float64(1<<53)
}

// placement holds the common spatial model: the jammer radiates from a
// testbed node's position at elevated power (JamLab reconfigures a mote;
// the paper raises its TX power to emulate 802.11's larger footprint). The
// jammer's propagation reuses the topology's link model — including the
// per-link wall shadowing — so the disturbed region is patchy the way a
// real building is, which is what leaves room for routing around it.
type placement struct {
	topo       *topology.Topology
	at         topology.NodeID
	txPowerDBm float64
}

// PowerAtDBm returns the interference power this source lands on a node.
func (p placement) PowerAtDBm(node topology.NodeID) float64 {
	if node == p.at {
		return p.txPowerDBm // co-located: saturates the front end
	}
	// Same path loss and shadowing as a mote transmission from that spot,
	// shifted by the power difference.
	return p.topo.RSS(p.at, node) + (p.txPowerDBm - p.topo.TxPowerDBm)
}

// channelSet is a set of 802.15.4 channels, one bit per channel number:
// ActiveOn probes it on every query, so membership is a shift and a mask.
type channelSet uint32

// has reports whether the channel is in the set; a channel number past
// the set's bits is not.
func (s channelSet) has(ch phy.Channel) bool { return s&(1<<ch) != 0 }

// WiFiJammer emulates JamLab's "WiFi data streaming" regeneration mode: a
// 20 MHz 802.11 transmitter blanketing four adjacent 802.15.4 channels with
// bursty traffic at streaming duty cycle.
type WiFiJammer struct {
	placement
	channels  channelSet
	dutyCycle float64
	seed      uint64
}

var _ sim.Interferer = (*WiFiJammer)(nil)

// NewWiFiJammer places a WiFi-streaming jammer at the given node, occupying
// the 802.15.4 channels overlapped by the given WiFi channel (1, 6 or 11).
func NewWiFiJammer(topo *topology.Topology, at topology.NodeID, wifiChannel int, seed int64) *WiFiJammer {
	var chs channelSet
	for _, c := range phy.WiFiOverlap(wifiChannel) {
		chs |= 1 << c
	}
	return &WiFiJammer{
		placement: placement{topo: topo, at: at, txPowerDBm: -7},
		channels:  chs,
		// Probability a WiFi burst overlaps the 4.3 ms 802.15.4 frame
		// inside an active 10 ms slot, at streaming load.
		dutyCycle: 0.45,
		seed:      uint64(seed)*2654435761 + uint64(at),
	}
}

// ActiveOn implements sim.Interferer. Streaming traffic is bursty: within
// an on-burst most slots carry WiFi frames; bursts alternate with short
// idle gaps (rate adaptation, inter-frame spacing).
func (j *WiFiJammer) ActiveOn(asn sim.ASN, ch phy.Channel) bool {
	if !j.channels.has(ch) {
		return false
	}
	// 300-slot (3 s) macro bursts with 85% on-phase, then per-slot duty.
	burst := splitmix64(j.seed^uint64(asn/300)) % 100
	if burst >= 85 {
		return false
	}
	return hashFloat(j.seed, asn, 0) < j.dutyCycle
}

// BluetoothJammer emulates JamLab's Bluetooth mode: a frequency-hopping
// 1 MHz interferer that lands on any given 802.15.4 channel only
// occasionally, but does so constantly across the whole band.
type BluetoothJammer struct {
	placement
	seed uint64
}

var _ sim.Interferer = (*BluetoothJammer)(nil)

// NewBluetoothJammer places a Bluetooth-emulating jammer at the given node.
func NewBluetoothJammer(topo *topology.Topology, at topology.NodeID, seed int64) *BluetoothJammer {
	return &BluetoothJammer{
		placement: placement{topo: topo, at: at, txPowerDBm: -8},
		seed:      uint64(seed)*40503 + uint64(at),
	}
}

// ActiveOn implements sim.Interferer. Bluetooth hops over 79 MHz; a 2 MHz
// 802.15.4 channel is hit by roughly 1600 hops/s * 2/79 ~ 40% of 10 ms
// slots at full load; we model a busy piconet at half load.
func (j *BluetoothJammer) ActiveOn(asn sim.ASN, ch phy.Channel) bool {
	return hashFloat(j.seed, asn, ch) < 0.20
}

// CoojaDisturber reproduces the disturber nodes of the paper's Section
// VII-D simulation: an interferer that turns on and off every five
// minutes. It occupies a four-channel block (a Cooja disturber radiates a
// wide carrier, but nowhere near the full 80 MHz band), so channel hopping
// retains clear slots to retry in.
type CoojaDisturber struct {
	placement
	periodSlots int64
	phase       int64
	channels    channelSet
}

var _ sim.Interferer = (*CoojaDisturber)(nil)

// NewCoojaDisturber places a disturber at the given node with the paper's
// 5-minute on / 5-minute off cycle. The phase index staggers multiple
// disturbers so they do not all toggle in the same slot, and shifts each
// disturber's channel block.
func NewCoojaDisturber(topo *topology.Topology, at topology.NodeID, phase int) *CoojaDisturber {
	var chs channelSet
	first := phy.Channel(phy.FirstChannel + (phase*4)%(phy.NumChannels-3))
	for c := first; c < first+4 && c <= phy.LastChannel; c++ {
		chs |= 1 << c
	}
	return &CoojaDisturber{
		placement:   placement{topo: topo, at: at, txPowerDBm: topo.TxPowerDBm + 3},
		periodSlots: sim.SlotsFor(5 * time.Minute),
		phase:       int64(phase) * 6000, // 1-minute stagger
		channels:    chs,
	}
}

// ActiveOn implements sim.Interferer.
func (d *CoojaDisturber) ActiveOn(asn sim.ASN, ch phy.Channel) bool {
	if !d.channels.has(ch) {
		return false
	}
	return ((asn+d.phase)/d.periodSlots)%2 == 0
}
