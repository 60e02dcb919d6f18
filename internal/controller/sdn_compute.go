package controller

import (
	"cmp"
	"math"
	"slices"

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

// sdnGraph is the adjacency view assembled from the collected reports. A
// node is named by its position in nodes, which are in ascending ID; adj[i]
// holds node i's edges in ascending peer.
type sdnGraph struct {
	nodes []topology.NodeID
	adj   [][]sdnGraphEdge
}

type sdnGraphEdge struct {
	peer int // position in nodes
	etx  float64
}

// sdnEdge is one undirected link, a < b: an RSS observation while the
// graph is assembled, an ETX weight once it is built.
type sdnEdge struct {
	a, b topology.NodeID
	w    float64
}

// buildGraph symmetrizes the reported link observations (strongest
// direction wins) and weights edges by the RSS→ETX map the distributed
// stacks also start from.
func (s *SDNStack) buildGraph(asn sim.ASN) *sdnGraph {
	var edges []sdnEdge
	note := func(a, b topology.NodeID, rss float64) {
		if a == 0 || b == 0 || a == b || a == topology.Broadcast || b == topology.Broadcast {
			return
		}
		if b < a {
			a, b = b, a
		}
		edges = append(edges, sdnEdge{a: a, b: b, w: rss})
	}
	for _, rep := range s.reports.Entries() {
		for _, e := range rep.Val.neigh {
			note(rep.ID, e.Node, e.RSS)
		}
	}
	// The controller is a node too: its own observations are the one
	// report that never has to cross the mesh.
	stale := asn - sim.SlotsFor(s.cfg.NeighborStale)
	for _, e := range s.rss.Entries() {
		if e.Val.heard >= stale {
			note(s.id, e.ID, e.Val.rss)
		}
	}
	// Each link once, at its strongest observation: sorted by (a, b) and,
	// within a link, strongest first, the first of each run is kept.
	slices.SortFunc(edges, func(x, y sdnEdge) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		if c := cmp.Compare(x.b, y.b); c != 0 {
			return c
		}
		return cmp.Compare(y.w, x.w)
	})
	edges = slices.CompactFunc(edges, func(x, y sdnEdge) bool { return x.a == y.a && x.b == y.b })
	for i := range edges {
		edges[i].w = link.InitialETX(edges[i].w)
	}
	return newSDNGraph(edges, s.id)
}

// newSDNGraph builds the graph over ETX-weighted edges sorted by (a, b)
// without repeats, on their end points and the extra nodes.
func newSDNGraph(edges []sdnEdge, extra ...topology.NodeID) *sdnGraph {
	g := &sdnGraph{nodes: make([]topology.NodeID, 0, len(extra)+2*len(edges))}
	g.nodes = append(g.nodes, extra...)
	for _, e := range edges {
		g.nodes = append(g.nodes, e.a, e.b)
	}
	slices.Sort(g.nodes)
	g.nodes = slices.Compact(g.nodes)

	// In (a, b) order a node's links to lower peers, (p, n), all come
	// before its links to higher ones, (n, q), each run in ascending peer:
	// appended in that order, every node's edges are in ascending peer.
	g.adj = make([][]sdnGraphEdge, len(g.nodes))
	for _, e := range edges {
		a, _ := g.pos(e.a)
		b, _ := g.pos(e.b)
		g.adj[a] = append(g.adj[a], sdnGraphEdge{peer: b, etx: e.w})
		g.adj[b] = append(g.adj[b], sdnGraphEdge{peer: a, etx: e.w})
	}
	return g
}

// pos returns the node's position in the graph; ok is false when it is
// not in it.
func (g *sdnGraph) pos(n topology.NodeID) (int, bool) { return slices.BinarySearch(g.nodes, n) }

// shortestPaths is a deterministic O(V²) multi-source Dijkstra: sources
// start at distance 0, ties break to the lower node ID, neighbors relax
// in ascending ID. It returns each node's predecessor toward the nearest
// source, by position: -1 for a source and for a node no source reaches.
func (g *sdnGraph) shortestPaths(sources []topology.NodeID) []int {
	dist := make([]float64, len(g.nodes))
	prev := make([]int, len(g.nodes))
	done := make([]bool, len(g.nodes))
	for i := range dist {
		dist[i], prev[i] = math.Inf(1), -1
	}
	for _, src := range sources {
		if i, ok := g.pos(src); ok {
			dist[i] = 0
		}
	}
	for {
		u, best := -1, math.Inf(1)
		for i, d := range dist { // ascending ID: deterministic tie-break
			if !done[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 {
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

// pathFrom walks predecessors back from target to the (single) source,
// both positions, and returns the forward hop list source→…→target,
// excluding the source. A nil return means the target is unreachable in
// the collected graph.
func (g *sdnGraph) pathFrom(prev []int, source, target int) []topology.NodeID {
	if target == source {
		return []topology.NodeID{}
	}
	var rev []topology.NodeID
	for at := target; at != source; at = prev[at] {
		if prev[at] < 0 || len(rev) > len(prev) {
			return nil
		}
		rev = append(rev, g.nodes[at])
	}
	slices.Reverse(rev)
	return rev
}

// configs is every graph node's configuration, by position: its parent is
// its predecessor toward the nearest access point (none for an access
// point, which is a source), its children the nodes whose parent it is, in
// ascending ID, the first MaxChildren of them.
func (s *SDNStack) configs(g *sdnGraph) []sdnNodeConfig {
	cfgs := make([]sdnNodeConfig, len(g.nodes))
	for i, p := range g.shortestPaths(s.aps) {
		if p < 0 {
			continue
		}
		cfgs[i].parent = g.nodes[p]
		if len(cfgs[p].children) < s.cfg.MaxChildren {
			cfgs[p].children = append(cfgs[p].children, g.nodes[i])
		}
	}
	return cfgs
}

// recompute is the controller's periodic epoch: prune stale reports,
// rebuild the graph, recompute the routing tree toward the sinks, and
// queue configuration pushes for every node whose assignment changed
// (everyone, on full-refresh epochs). Dissemination rides the control
// slotframe hop by hop, so reconvergence takes as long as the radio
// takes — the quantity digs-chaos measures.
func (s *SDNStack) recompute(asn sim.ASN) {
	stale := asn - sim.SlotsFor(s.cfg.StaleAfter)
	for i := s.reports.Len() - 1; i >= 0; i-- {
		if s.reports.At(i).Val.asn < stale {
			s.reports.DeleteAt(i)
		}
	}
	g := s.buildGraph(asn)
	cfgs := s.configs(g)

	// Dissemination paths: source-routed from the controller over the
	// same collected graph.
	dissemPrev := g.shortestPaths([]topology.NodeID{s.id})
	self, _ := g.pos(s.id)

	s.epoch++
	if s.epoch == 0 {
		s.epoch = 1
	}
	s.epochCount++
	fullRefresh := s.epochCount%int64(s.cfg.FullRefreshEvery) == 1

	for i, target := range g.nodes {
		cfg := cfgs[i]
		if target == s.id {
			// The controller configures itself without spending slots.
			s.applyConfig(asn, marshalConfig(s.epoch, cfg.parent, cfg.children))
			s.lastSent.Put(target, cfg)
			continue
		}
		if _, isAP := slices.BinarySearch(s.aps, target); cfg.parent == 0 && !isAP {
			// Unreachable from the sinks in the collected graph: nothing
			// useful to push.
			continue
		}
		if !fullRefresh {
			if last, ok := s.lastSent.Get(target); ok && sameConfig(last, cfg) {
				continue
			}
		}
		path := g.pathFrom(dissemPrev, self, i)
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
			s.lastSent.Put(target, cfg)
		}
	}
}
