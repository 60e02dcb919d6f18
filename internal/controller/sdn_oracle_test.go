package controller

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// This file keeps the controller's graph computation as it was written over
// maps — per-node adjacency lists, membership and Dijkstra's distances,
// predecessors and done set all keyed by node ID — as the reference the
// positional graph must reproduce.

type mapGraph struct {
	nodes []topology.NodeID // sorted
	adj   map[topology.NodeID][]mapEdge
	index map[topology.NodeID]struct{}
}

type mapEdge struct {
	peer topology.NodeID
	etx  float64
}

func mapBuildGraph(self topology.NodeID, reports map[topology.NodeID]sdnReportEntry,
	rss map[topology.NodeID]sdnRSSEntry, stale sim.ASN) *mapGraph {
	type pair struct{ a, b topology.NodeID }
	best := make(map[pair]float64)
	note := func(a, b topology.NodeID, rss float64) {
		if a == 0 || b == 0 || a == b || a == topology.Broadcast || b == topology.Broadcast {
			return
		}
		if b < a {
			a, b = b, a
		}
		k := pair{a, b}
		if cur, ok := best[k]; !ok || rss > cur {
			best[k] = rss
		}
	}
	for n, rep := range reports {
		for _, e := range rep.neigh {
			note(n, e.Node, e.RSS)
		}
	}
	for n, e := range rss {
		if e.heard >= stale {
			note(self, n, e.rss)
		}
	}
	g := &mapGraph{adj: make(map[topology.NodeID][]mapEdge), index: make(map[topology.NodeID]struct{})}
	add := func(n topology.NodeID) {
		if _, ok := g.index[n]; !ok {
			g.index[n] = struct{}{}
			g.nodes = append(g.nodes, n)
		}
	}
	add(self)
	for k, rss := range best {
		etx := link.InitialETX(rss)
		add(k.a)
		add(k.b)
		g.adj[k.a] = append(g.adj[k.a], mapEdge{peer: k.b, etx: etx})
		g.adj[k.b] = append(g.adj[k.b], mapEdge{peer: k.a, etx: etx})
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	for _, n := range g.nodes {
		a := g.adj[n]
		sort.Slice(a, func(i, j int) bool { return a[i].peer < a[j].peer })
	}
	return g
}

func (g *mapGraph) shortestPaths(sources []topology.NodeID) map[topology.NodeID]topology.NodeID {
	dist := make(map[topology.NodeID]float64, len(g.nodes))
	prev := make(map[topology.NodeID]topology.NodeID, len(g.nodes))
	done := make(map[topology.NodeID]bool, len(g.nodes))
	for _, n := range g.nodes {
		dist[n] = math.Inf(1)
	}
	for _, src := range sources {
		if _, ok := g.index[src]; ok {
			dist[src] = 0
		}
	}
	for {
		u := topology.NodeID(0)
		best := math.Inf(1)
		for _, n := range g.nodes {
			if !done[n] && dist[n] < best {
				best = dist[n]
				u = n
			}
		}
		if u == 0 {
			break
		}
		done[u] = true
		for _, e := range g.adj[u] {
			if nd := best + e.etx; nd < dist[e.peer] {
				dist[e.peer] = nd
				prev[e.peer] = u
			}
		}
	}
	return prev
}

func mapPathFrom(prev map[topology.NodeID]topology.NodeID, source, target topology.NodeID) []topology.NodeID {
	if target == source {
		return []topology.NodeID{}
	}
	var rev []topology.NodeID
	for at := target; at != source; {
		p, ok := prev[at]
		if !ok || len(rev) > len(prev)+1 {
			return nil
		}
		rev = append(rev, at)
		at = p
	}
	out := make([]topology.NodeID, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// mapController is the controller role with its tables in maps. It owns an
// SDNStack for everything else: configuration, epochs, its own
// configuration and the control queue.
type mapController struct {
	s        *SDNStack
	reports  map[topology.NodeID]sdnReportEntry
	rss      map[topology.NodeID]sdnRSSEntry
	lastSent map[topology.NodeID]sdnNodeConfig
}

func (m *mapController) graph(asn sim.ASN) *mapGraph {
	return mapBuildGraph(m.s.id, m.reports, m.rss, asn-sim.SlotsFor(m.s.cfg.NeighborStale))
}

// configs is the routing tree recompute derived: parents toward the nearest
// access point, per-parent children sorted and capped.
func (m *mapController) configs(g *mapGraph) map[topology.NodeID]sdnNodeConfig {
	s := m.s
	treePrev := g.shortestPaths(s.aps)
	children := make(map[topology.NodeID][]topology.NodeID)
	for _, n := range g.nodes {
		if p, ok := treePrev[n]; ok && p != 0 {
			children[p] = append(children[p], n)
		}
	}
	for p := range children {
		c := children[p]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		if len(c) > s.cfg.MaxChildren {
			c = c[:s.cfg.MaxChildren]
		}
		children[p] = c
	}
	isAP := make(map[topology.NodeID]bool, len(s.aps))
	for _, ap := range s.aps {
		isAP[ap] = true
	}
	out := make(map[topology.NodeID]sdnNodeConfig, len(g.nodes))
	for _, target := range g.nodes {
		cfg := sdnNodeConfig{children: children[target]}
		if !isAP[target] {
			cfg.parent = treePrev[target]
		}
		out[target] = cfg
	}
	return out
}

func (m *mapController) recompute(asn sim.ASN) {
	s := m.s
	stale := asn - sim.SlotsFor(s.cfg.StaleAfter)
	for n, e := range m.reports {
		if e.asn < stale {
			delete(m.reports, n)
		}
	}
	g := m.graph(asn)
	cfgs := m.configs(g)
	isAP := make(map[topology.NodeID]bool, len(s.aps))
	for _, ap := range s.aps {
		isAP[ap] = true
	}
	dissemPrev := g.shortestPaths([]topology.NodeID{s.id})
	s.epoch++
	if s.epoch == 0 {
		s.epoch = 1
	}
	s.epochCount++
	fullRefresh := s.epochCount%int64(s.cfg.FullRefreshEvery) == 1
	for _, target := range g.nodes {
		cfg := cfgs[target]
		if target == s.id {
			s.applyConfig(asn, marshalConfig(s.epoch, cfg.parent, cfg.children))
			m.lastSent[target] = cfg
			continue
		}
		if cfg.parent == 0 && !isAP[target] {
			continue
		}
		if !fullRefresh {
			if last, ok := m.lastSent[target]; ok && sameConfig(last, cfg) {
				continue
			}
		}
		path := mapPathFrom(dissemPrev, s.id, target)
		if len(path) == 0 {
			continue
		}
		f := &sim.Frame{Kind: sim.KindConfig, Src: s.id, Dst: path[0], Origin: target, BornASN: asn,
			Payload: marshalConfig(s.epoch, cfg.parent, cfg.children)}
		if len(path) > 1 {
			f.Route = append([]topology.NodeID(nil), path[1:]...)
		}
		if s.enqueueCtrl(f) {
			m.lastSent[target] = cfg
		}
	}
}

// sameGraph fails unless the positional graph has the map graph's nodes and,
// per node, its edges in the same order with the same weights.
func sameGraph(t *testing.T, where string, g *sdnGraph, ref *mapGraph) {
	t.Helper()
	if !reflect.DeepEqual(g.nodes, ref.nodes) {
		t.Fatalf("%s: nodes %v, map reference %v", where, g.nodes, ref.nodes)
	}
	for i, n := range g.nodes {
		var got []mapEdge
		for _, e := range g.adj[i] {
			got = append(got, mapEdge{peer: g.nodes[e.peer], etx: e.etx})
		}
		if want := ref.adj[n]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: node %d edges %v, map reference %v", where, n, got, want)
		}
	}
}

// TestControllerMatchesMapReference runs the controller's epochs over
// random link-state reports against the map reference: reports in both
// directions of a link with different strengths, signal strengths from a
// small set (ETX ties, equal-cost paths), self-loops and reserved IDs,
// stale reports and stale own observations, tight child caps and full and
// incremental refreshes. Every epoch must build the same graph, find the
// same predecessors toward the access points, toward the controller and
// toward a random source set, derive the same configuration for every node,
// and queue the same configuration frames.
func TestControllerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	signals := []float64{-55, -60, -70, -75, -80, -90, -95}
	queued := 0
	for trial := 0; trial < 40; trial++ {
		cfg := DefaultSDNConfig()
		cfg.MaxChildren = 1 + rng.Intn(4)
		cfg.FullRefreshEvery = 1 + rng.Intn(3)
		cfg.CtrlQueueCapController = 255
		aps := []topology.NodeID{1}
		if rng.Intn(2) == 0 {
			aps = append(aps, 2, topology.NodeID(3+rng.Intn(5)))
		}
		const roster = 40
		newCtrl := func() *SDNStack {
			s, err := NewSDNStack(1, true, 1, roster, aps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s := newCtrl()
		ref := &mapController{s: newCtrl(), reports: map[topology.NodeID]sdnReportEntry{},
			rss: map[topology.NodeID]sdnRSSEntry{}, lastSent: map[topology.NodeID]sdnNodeConfig{}}
		peer := func() topology.NodeID {
			switch rng.Intn(30) {
			case 0:
				return 0
			case 1:
				return topology.Broadcast
			}
			return topology.NodeID(1 + rng.Intn(roster+4))
		}
		asn := sim.ASN(0)
		for epoch := 0; epoch < 12; epoch++ {
			asn += sim.SlotsFor(cfg.RecomputeEvery) + sim.ASN(rng.Intn(3000))
			for k := rng.Intn(25); k > 0; k-- {
				from := topology.NodeID(2 + rng.Intn(roster))
				var neigh []SDNReportNeighbor
				for j := rng.Intn(cfg.MaxNeighborsReported + 1); j > 0; j-- {
					neigh = append(neigh, SDNReportNeighbor{Node: peer(), RSS: signals[rng.Intn(len(signals))]})
				}
				e := sdnReportEntry{asn: asn - sim.ASN(rng.Intn(int(sim.SlotsFor(2*cfg.StaleAfter)))), neigh: neigh}
				s.reports.Put(from, e)
				ref.reports[from] = e
			}
			for k := rng.Intn(6); k > 0; k-- {
				n := peer()
				e := sdnRSSEntry{rss: signals[rng.Intn(len(signals))],
					heard: asn - sim.ASN(rng.Intn(int(sim.SlotsFor(2*cfg.NeighborStale))))}
				s.rss.Put(n, e)
				ref.rss[n] = e
			}
			where := fmt.Sprintf("trial %d epoch %d", trial, epoch)

			s.recompute(asn)
			ref.recompute(asn)
			if s.reports.Len() != len(ref.reports) {
				t.Fatalf("%s: %d fresh reports, map reference %d", where, s.reports.Len(), len(ref.reports))
			}
			if len(s.ctrlQ) != len(ref.s.ctrlQ) {
				t.Fatalf("%s: %d frames queued, map reference %d", where, len(s.ctrlQ), len(ref.s.ctrlQ))
			}
			for i, e := range s.ctrlQ {
				if want := ref.s.ctrlQ[i].frame; !reflect.DeepEqual(e.frame, want) {
					t.Fatalf("%s: frame %d %+v, map reference %+v", where, i, e.frame, want)
				}
			}
			queued += len(s.ctrlQ)
			s.ctrlQ, ref.s.ctrlQ = nil, nil
			if s.lastSent.Len() != len(ref.lastSent) {
				t.Fatalf("%s: %d configurations sent, map reference %d", where, s.lastSent.Len(), len(ref.lastSent))
			}
			for _, e := range s.lastSent.Entries() {
				if want := ref.lastSent[e.ID]; !reflect.DeepEqual(e.Val, want) {
					t.Fatalf("%s: node %d last sent %+v, map reference %+v", where, e.ID, e.Val, want)
				}
			}
			if s.parent != ref.s.parent || !reflect.DeepEqual(s.children, ref.s.children) {
				t.Fatalf("%s: controller configured (%d, %v), map reference (%d, %v)", where,
					s.parent, s.children, ref.s.parent, ref.s.children)
			}

			g, rg := s.buildGraph(asn), ref.graph(asn)
			sameGraph(t, where, g, rg)
			sources := [][]topology.NodeID{aps, {1}, {topology.NodeID(1 + rng.Intn(roster)), topology.NodeID(1 + rng.Intn(roster))}}
			for _, src := range sources {
				if got, want := predecessors(g, g.shortestPaths(src)), rg.shortestPaths(src); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: predecessors toward %v %v, map reference %v", where, src, got, want)
				}
			}
			cfgs, want := s.configs(g), ref.configs(rg)
			for i, n := range g.nodes {
				if !reflect.DeepEqual(cfgs[i], want[n]) {
					t.Fatalf("%s: node %d configured %+v, map reference %+v", where, n, cfgs[i], want[n])
				}
			}
		}
	}
	if queued < 1000 {
		t.Fatalf("the epochs queued only %d configuration frames", queued)
	}
}
