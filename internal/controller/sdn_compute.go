package controller

import (
	"math"
	"sort"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// This file is the controller role's brain: assemble the graph the
// reports describe, run shortest-path over it, and turn the result into
// per-node configurations disseminated in-band. It runs inside the
// controller node's own Assignment, so nodes stay isolated from each other
// — the cost of collection and dissemination is paid in radio slots like
// everything else.

// sdnGraph is the adjacency view assembled from the collected reports.
type sdnGraph struct {
	nodes []topology.NodeID                  // sorted
	adj   map[topology.NodeID][]sdnGraphEdge // per node, sorted by peer
	index map[topology.NodeID]struct{}       // membership
}

type sdnGraphEdge struct {
	peer topology.NodeID
	etx  float64
}

// buildGraph symmetrizes the reported link observations (strongest
// direction wins) and weights edges by the RSS→ETX map the distributed
// stacks also start from.
func (s *SDNStack) buildGraph(asn sim.ASN) *sdnGraph {
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
	for n, rep := range s.reports {
		for _, e := range rep.neigh {
			note(n, e.Node, e.RSS)
		}
	}
	// The controller is a node too: its own observations are the one
	// report that never has to cross the mesh.
	stale := asn - sim.SlotsFor(s.cfg.NeighborStale)
	for n, e := range s.rss {
		if e.heard >= stale {
			note(s.id, n, e.rss)
		}
	}

	g := &sdnGraph{
		adj:   make(map[topology.NodeID][]sdnGraphEdge),
		index: make(map[topology.NodeID]struct{}),
	}
	add := func(n topology.NodeID) {
		if _, ok := g.index[n]; !ok {
			g.index[n] = struct{}{}
			g.nodes = append(g.nodes, n)
		}
	}
	add(s.id)
	for k, rss := range best {
		etx := link.InitialETX(rss)
		add(k.a)
		add(k.b)
		g.adj[k.a] = append(g.adj[k.a], sdnGraphEdge{peer: k.b, etx: etx})
		g.adj[k.b] = append(g.adj[k.b], sdnGraphEdge{peer: k.a, etx: etx})
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	for _, n := range g.nodes {
		a := g.adj[n]
		sort.Slice(a, func(i, j int) bool { return a[i].peer < a[j].peer })
	}
	return g
}

// shortestPaths is a deterministic O(V²) multi-source Dijkstra: sources
// start at distance 0, ties break to the lower node ID, neighbors relax
// in sorted order. Returns predecessor (toward the nearest source) per
// reached node.
func (g *sdnGraph) shortestPaths(sources []topology.NodeID) map[topology.NodeID]topology.NodeID {
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
		for _, n := range g.nodes { // sorted: deterministic tie-break
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

// pathFrom walks predecessors back from target to the (single) source and
// returns the forward hop list source→…→target, excluding the source. A
// nil return means the target is unreachable in the collected graph.
func pathFrom(prev map[topology.NodeID]topology.NodeID, source, target topology.NodeID) []topology.NodeID {
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

// recompute is the controller's periodic epoch: prune stale reports,
// rebuild the graph, recompute the routing tree toward the sinks, and
// queue configuration pushes for every node whose assignment changed
// (everyone, on full-refresh epochs). Dissemination rides the control
// slotframe hop by hop, so reconvergence takes as long as the radio
// takes — the quantity digs-chaos measures.
func (s *SDNStack) recompute(asn sim.ASN) {
	stale := asn - sim.SlotsFor(s.cfg.StaleAfter)
	for n, e := range s.reports {
		if e.asn < stale {
			delete(s.reports, n)
		}
	}
	g := s.buildGraph(asn)

	// Routing tree: every node's parent is its predecessor toward the
	// nearest access point.
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

	// Dissemination paths: source-routed from the controller over the
	// same collected graph.
	dissemPrev := g.shortestPaths([]topology.NodeID{s.id})

	s.epoch++
	if s.epoch == 0 {
		s.epoch = 1
	}
	s.epochCount++
	fullRefresh := s.epochCount%int64(s.cfg.FullRefreshEvery) == 1

	for _, target := range g.nodes {
		cfg := sdnNodeConfig{children: children[target]}
		if !isAP[target] {
			cfg.parent = treePrev[target]
		}
		if target == s.id {
			// The controller configures itself without spending slots.
			s.applyConfig(asn, marshalConfig(s.epoch, cfg.parent, cfg.children))
			s.lastSent[target] = cfg
			continue
		}
		if cfg.parent == 0 && !isAP[target] {
			// Unreachable from the sinks in the collected graph: nothing
			// useful to push.
			continue
		}
		if !fullRefresh {
			if last, ok := s.lastSent[target]; ok && sameConfig(last, cfg) {
				continue
			}
		}
		path := pathFrom(dissemPrev, s.id, target)
		if len(path) == 0 {
			continue
		}
		f := &sim.Frame{
			Kind:    sim.KindConfig,
			Src:     s.id,
			Dst:     path[0],
			Origin:  target,
			BornASN: asn,
			Payload: marshalConfig(s.epoch, cfg.parent, cfg.children),
		}
		if len(path) > 1 {
			f.Route = append([]topology.NodeID(nil), path[1:]...)
		}
		if s.enqueueCtrl(f) {
			s.lastSent[target] = cfg
		}
	}
}
