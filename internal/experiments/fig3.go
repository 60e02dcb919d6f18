package experiments

import (
	"time"

	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/whart"
)

// Fig3Row is one bar of Figure 3: the time the centralized WirelessHART
// Network Manager needs to react to network dynamics on one deployment.
type Fig3Row struct {
	Topology    string
	Nodes       int
	Collect     time.Duration
	Compute     time.Duration
	Disseminate time.Duration
	Total       time.Duration
}

// RunFig3 reproduces Figure 3: the centralized update cycle on the half
// and full versions of both testbeds.
func RunFig3() ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, topo := range []*topology.Topology{
		topology.HalfTestbedA(), topology.TestbedA(),
		topology.HalfTestbedB(), topology.TestbedB(),
	} {
		u, err := whart.UpdateCycle(topo)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{
			Topology:    topo.Name,
			Nodes:       topo.N(),
			Collect:     u.Collect,
			Compute:     u.Compute,
			Disseminate: u.Disseminate,
			Total:       u.Total(),
		})
	}
	return rows, nil
}
