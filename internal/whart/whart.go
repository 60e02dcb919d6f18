// Package whart implements the centralized WirelessHART baseline: the
// Network Manager that computes graph routes and a TDMA transmission
// schedule from global topology knowledge, and a model of the in-band
// management cycle (collect topology -> compute -> disseminate) whose
// duration Figure 3 of the paper measures.
package whart

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/topology"
)

// usablePRR is the minimum mean packet reception rate for a link to be
// admitted into the centrally computed routing graph.
const usablePRR = 0.35

// Routes is a centrally computed WirelessHART uplink routing graph: every
// field device has a primary parent and, where the topology allows, a
// backup parent, both strictly closer (in ETX distance) to the access
// points.
type Routes struct {
	// Best and Second are indexed by node ID (entry 0 and AP entries are
	// zero). Second is 0 where no backup exists.
	Best   []topology.NodeID
	Second []topology.NodeID
	// DistETX is each node's accumulated ETX to the nearest access point.
	DistETX []float64
	// Hops is each node's hop count along the primary path.
	Hops []int
}

// ComputeGraphRoutes runs the manager's global route computation: a
// Dijkstra pass from the access points over ETX link weights, then parent
// selection mirroring the WirelessHART rules (primary = minimum
// accumulated ETX; backup = next-best neighbour strictly closer to the
// APs). It fails if some device is unreachable.
func ComputeGraphRoutes(topo *topology.Topology) (*Routes, error) {
	n := topo.N()
	dist := make([]float64, n+1)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for _, ap := range topo.APs() {
		dist[ap] = 0
	}

	linkETX := func(a, b topology.NodeID) (float64, bool) {
		prr := topo.PRR(a, b)
		if prr < usablePRR {
			return 0, false
		}
		return phy.LinkETX(prr), true
	}

	// Dijkstra over the usable-link graph.
	done := make([]bool, n+1)
	for {
		u := -1
		for i := 1; i <= n; i++ {
			if !done[i] && (u == -1 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u == -1 || math.IsInf(dist[u], 1) {
			break
		}
		done[u] = true
		for v := 1; v <= n; v++ {
			if done[v] || v == u {
				continue
			}
			if w, ok := linkETX(topology.NodeID(u), topology.NodeID(v)); ok {
				if d := dist[u] + w; d < dist[v] {
					dist[v] = d
				}
			}
		}
	}

	routes := &Routes{
		Best:    make([]topology.NodeID, n+1),
		Second:  make([]topology.NodeID, n+1),
		DistETX: dist,
		Hops:    make([]int, n+1),
	}
	for i := topo.NumAPs + 1; i <= n; i++ {
		id := topology.NodeID(i)
		if math.IsInf(dist[i], 1) {
			return nil, fmt.Errorf("whart routes: device %d unreachable", i)
		}
		type cand struct {
			id   topology.NodeID
			cost float64
		}
		var cands []cand
		for v := 1; v <= n; v++ {
			if v == i {
				continue
			}
			w, ok := linkETX(id, topology.NodeID(v))
			if !ok || dist[v] >= dist[i] {
				continue // parents must be strictly closer
			}
			cands = append(cands, cand{id: topology.NodeID(v), cost: dist[v] + w})
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("whart routes: device %d has no eligible parent", i)
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].cost != cands[b].cost {
				return cands[a].cost < cands[b].cost
			}
			return cands[a].id < cands[b].id
		})
		routes.Best[i] = cands[0].id
		if len(cands) > 1 {
			routes.Second[i] = cands[1].id
		}
	}

	// Hop counts along the primary paths.
	for i := topo.NumAPs + 1; i <= n; i++ {
		hops, cur := 0, topology.NodeID(i)
		for !topo.IsAP(cur) && hops <= n {
			cur = routes.Best[cur]
			hops++
			if cur == 0 {
				return nil, fmt.Errorf("whart routes: broken primary path at %d", i)
			}
		}
		routes.Hops[i] = hops
	}
	return routes, nil
}

// BackupCoverage returns the fraction of field devices with a backup
// parent (used to compare central vs distributed graph construction).
func (r *Routes) BackupCoverage(topo *topology.Topology) float64 {
	total, with := 0, 0
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		total++
		if r.Second[i] != 0 {
			with++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(with) / float64(total)
}

// The management-plane model behind Figure 3. Real WirelessHART networks
// reserve sparse management slots in the superframe; every management
// command travels hop by hop through them, which is what makes the
// Figure 3 update times grow so steeply with network size. The values are
// calibrated against Figure 3's testbed measurements (hundreds of seconds
// for a 50-node network).
const (
	// managementSlotPeriod is the spacing of management slots in (10 ms)
	// slots: one management transmission opportunity per second.
	managementSlotPeriod = 100
	// collectCommands is the number of round-trip command exchanges the
	// manager needs per device to gather its neighbour health reports.
	collectCommands = 1
	// disseminateCommands is the number of acknowledged downlink updates
	// per device (route table write + schedule write).
	disseminateCommands = 2
	// computePerDevice is the manager-side computation cost per device.
	computePerDevice = 120 * time.Millisecond
)

// UpdateBreakdown is the duration of one full manager reaction to network
// dynamics, phase by phase.
type UpdateBreakdown struct {
	Collect     time.Duration
	Compute     time.Duration
	Disseminate time.Duration
}

// Total returns the end-to-end update time (the Figure 3 quantity).
func (u UpdateBreakdown) Total() time.Duration {
	return u.Collect + u.Compute + u.Disseminate
}

// UpdateCycle models one full centralized update: the manager polls every
// device for its neighbour table (one round trip of ETX-weighted hops per
// command, serialized through the management slots), recomputes routes and
// schedule, and pushes per-device updates back out.
func UpdateCycle(topo *topology.Topology) (UpdateBreakdown, error) {
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		return UpdateBreakdown{}, err
	}
	slotTime := managementSlotPeriod * phy.SlotDuration

	var collect, disseminate time.Duration
	for i := topo.NumAPs + 1; i <= topo.N(); i++ {
		// A command round trip consumes one management slot per expected
		// transmission on each hop, both directions.
		roundTrip := time.Duration(2*routes.DistETX[i]) * slotTime
		collect += collectCommands * roundTrip
		disseminate += disseminateCommands * roundTrip
	}
	compute := time.Duration(topo.N()-topo.NumAPs) * computePerDevice
	return UpdateBreakdown{Collect: collect, Compute: compute, Disseminate: disseminate}, nil
}
