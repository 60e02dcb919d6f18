// Package metrics implements the paper's evaluation metrics and the
// statistics its figures report: end-to-end packet delivery rate, latency,
// radio power per received packet, duty cycle, repair and joining times,
// and CDF / boxplot / percentile summaries.
package metrics

import (
	"math"
	"sort"
	"time"

	"github.com/digs-net/digs/internal/sim"
)

// packetKey identifies one application packet end to end.
type packetKey struct {
	flow uint16
	seq  uint16
}

// Collector gathers per-packet outcomes for one measurement window.
type Collector struct {
	sent      map[packetKey]sim.ASN
	delivered map[packetKey]sim.ASN

	// outOfWindow counts deliveries of packets generated outside the
	// measurement window, dupDeliveries counts repeat arrivals of
	// already-delivered packets (redundant routes). Neither affects PDR;
	// they are exported so trace totals reconcile with collector totals.
	outOfWindow   int64
	dupDeliveries int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		sent:      make(map[packetKey]sim.ASN),
		delivered: make(map[packetKey]sim.ASN),
	}
}

// Sent records a generated packet.
func (c *Collector) Sent(flow, seq uint16, asn sim.ASN) {
	c.sent[packetKey{flow, seq}] = asn
}

// Delivered records a packet arriving at an access point. Duplicate
// deliveries (over redundant routes) count once, at the earliest arrival.
func (c *Collector) Delivered(flow, seq uint16, asn sim.ASN) {
	k := packetKey{flow, seq}
	if _, known := c.sent[k]; !known {
		c.outOfWindow++
		return // out-of-window packet
	}
	if prev, ok := c.delivered[k]; ok {
		c.dupDeliveries++
		if prev <= asn {
			return
		}
	}
	c.delivered[k] = asn
}

// OutOfWindowCount returns how many deliveries concerned packets generated
// outside the measurement window (before Sent was recorded).
func (c *Collector) OutOfWindowCount() int64 { return c.outOfWindow }

// DuplicateCount returns how many deliveries repeated an already-delivered
// packet (duplicates over redundant routes; counted once per extra arrival).
func (c *Collector) DuplicateCount() int64 { return c.dupDeliveries }

// SentCount returns the number of packets generated in the window.
func (c *Collector) SentCount() int { return len(c.sent) }

// DeliveredCount returns the number of distinct packets delivered.
func (c *Collector) DeliveredCount() int { return len(c.delivered) }

// PDR returns the end-to-end packet delivery rate of the window.
func (c *Collector) PDR() float64 {
	if len(c.sent) == 0 {
		return 0
	}
	return float64(len(c.delivered)) / float64(len(c.sent))
}

// FlowPDR returns the delivery rate of a single flow.
func (c *Collector) FlowPDR(flow uint16) float64 {
	sent, got := 0, 0
	for k := range c.sent {
		if k.flow != flow {
			continue
		}
		sent++
		if _, ok := c.delivered[k]; ok {
			got++
		}
	}
	if sent == 0 {
		return 0
	}
	return float64(got) / float64(sent)
}

// DeliveredSeqs returns which sequence numbers of a flow arrived (for the
// micro-benchmark figures).
func (c *Collector) DeliveredSeqs(flow uint16) map[uint16]bool {
	out := make(map[uint16]bool)
	for k := range c.delivered {
		if k.flow == flow {
			out[k.seq] = true
		}
	}
	return out
}

// Latencies returns the end-to-end latency of every delivered packet.
func (c *Collector) Latencies() []time.Duration {
	out := make([]time.Duration, 0, len(c.delivered))
	for k, at := range c.delivered {
		out = append(out, sim.TimeAt(at-c.sent[k]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PowerPerPacketMW converts a window's total radio energy and delivered
// count into the paper's power-per-received-packet metric: the network's
// average radio power divided by the number of packets it delivered.
// The metric is undefined for a window that delivered nothing (or has no
// length); it is 0 then, a value no delivering window yields — its radios
// spent energy — so a result that encodes it with omitempty leaves it out.
func PowerPerPacketMW(totalEnergyJoules float64, window time.Duration, deliveredPackets int) float64 {
	if window <= 0 || deliveredPackets == 0 {
		return 0
	}
	avgPowerMW := totalEnergyJoules / window.Seconds() * 1000
	return avgPowerMW / float64(deliveredPackets)
}

// DutyCyclePerPacket is the Figure 12(c) metric: the network's average
// radio duty cycle (percent) divided by the packets delivered.
func DutyCyclePerPacket(totalRadioOn time.Duration, nodeCount int, window time.Duration, deliveredPackets int) float64 {
	if window <= 0 || nodeCount == 0 || deliveredPackets == 0 {
		return math.Inf(1)
	}
	duty := float64(totalRadioOn) / float64(window) / float64(nodeCount) * 100
	return duty / float64(deliveredPackets)
}
