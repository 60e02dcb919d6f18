package main

import (
	"fmt"
	"os"
	"time"

	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/scenario"
)

// runScaleSmoke briefly steps a generated 10k-node deployment on the
// sparse medium under both distributed stacks — a cheap CI check that the
// massive-scale path still builds and makes join progress. WirelessHART is
// excluded by design: its centralised manager computes the whole schedule
// up front, which is the scaling limit the paper's distributed approach
// removes. (Timed measurement of the engine
// is bench/'s job: the scale-1k workloads.)
func runScaleSmoke(seed int64) error {
	const (
		topoName = "gen-plant-10000-3"
		slots    = 6000
	)
	for _, protocol := range []string{"digs", "orchestra"} {
		fmt.Fprintf(os.Stderr, "scale-smoke: %s on %s, %d slots...\n", protocol, topoName, slots)
		sc, err := scenario.Build(scenario.Params{TopologyName: topoName, Protocol: protocol, Seed: seed})
		if err != nil {
			return fmt.Errorf("scale-smoke: %s: %w", protocol, err)
		}
		if !sc.NW.ScaleMode() {
			return fmt.Errorf("scale-smoke: %s did not select the sparse engine", topoName)
		}
		fset := flows.FixedSet(sc.Params.Topology.SuggestedSources, 2*time.Second)
		sc.Drive(fset, slots/200+1, 0, nil)
		start := time.Now()
		sc.NW.Run(slots)
		wall := time.Since(start)
		if sc.Joined() == 0 {
			return fmt.Errorf("scale-smoke: %s: no node joined within %d slots", protocol, slots)
		}
		fmt.Printf("smoke-%-10s nodes=%d joined=%d  %8.0f slots/s\n  %v\n",
			protocol, sc.Params.Topology.N(), sc.Joined(), slots/wall.Seconds(), sc.NW.LoopStats())
	}
	return nil
}
