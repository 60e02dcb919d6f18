package core

import (
	"fmt"

	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Gateway is the wired side of the WSAN: it owns the access points,
// learns downlink routes from the paths uplink data frames record, and
// source-routes actuation commands back into the mesh (the paper's
// footnote 2: the downlink graph follows the same method as the uplink
// graph; WirelessHART gateways source-route downstream).
type Gateway struct {
	net *Network

	// routes caches, per field device, the most recently observed uplink
	// path (AP-side first) and the AP that received it.
	routes map[topology.NodeID]downRoute

	// Delivered is invoked for every data frame arriving at any AP (after
	// route learning). Optional.
	Delivered func(asn sim.ASN, f *sim.Frame)
}

type downRoute struct {
	ap   topology.NodeID
	path []topology.NodeID // AP-adjacent hop first, destination last
}

// NewGateway wires the gateway onto the network's access points. It takes
// over the AP sink callbacks; use Delivered for application-level
// notifications.
func NewGateway(net *Network) *Gateway {
	g := &Gateway{
		net:    net,
		routes: make(map[topology.NodeID]downRoute),
	}
	for _, node := range net.Nodes[1:] {
		if node == nil || !node.IsAP() {
			continue
		}
		ap := node.ID()
		node.Sink = func(asn sim.ASN, f *sim.Frame) { g.observe(ap, asn, f) }
	}
	return g
}

// observe learns the downlink route from an uplink frame's recorded path.
func (g *Gateway) observe(ap topology.NodeID, asn sim.ASN, f *sim.Frame) {
	// The frame's Route holds the hops it traversed origin-side first; the
	// final transmitter is f.Src. Reversed, that is the source route from
	// the AP back to the origin.
	path := make([]topology.NodeID, 0, len(f.Route)+1)
	path = append(path, f.Src)
	for i := len(f.Route) - 1; i >= 0; i-- {
		path = append(path, f.Route[i])
	}
	// Defensive: the destination must terminate the route.
	if path[len(path)-1] != f.Origin {
		path = append(path, f.Origin)
	}
	g.routes[f.Origin] = downRoute{ap: ap, path: path}
	if g.Delivered != nil {
		g.Delivered(asn, f)
	}
}

// RouteTo returns the cached source route to a device (AP-adjacent hop
// first, destination last) and the AP holding it.
func (g *Gateway) RouteTo(dst topology.NodeID) (ap topology.NodeID, path []topology.NodeID, ok bool) {
	r, ok := g.routes[dst]
	if !ok {
		return 0, nil, false
	}
	return r.ap, append([]topology.NodeID(nil), r.path...), true
}

// KnownDevices returns how many field devices the gateway has routes for.
func (g *Gateway) KnownDevices() int { return len(g.routes) }

// SendCommand source-routes an actuation command to the device, using the
// most recent uplink path. It fails if no route has been learned yet or
// downlink is disabled at the MAC.
func (g *Gateway) SendCommand(dst topology.NodeID, payload []byte) error {
	r, ok := g.routes[dst]
	if !ok {
		return fmt.Errorf("gateway: no route to device %d yet (no uplink traffic seen)", dst)
	}
	return g.net.Nodes[r.ap].SendCommand(r.path, payload)
}
