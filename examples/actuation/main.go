// Actuation: the closed loop that makes a WSAN a sensor-ACTUATOR network.
// Sensors report readings uplink over the distributed graph routes; the
// gateway learns each device's path from the hops those reports record,
// and source-routes setpoint commands back downlink in autonomous command
// slots — no Network Manager anywhere.
//
//	go run ./examples/actuation
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "actuation:", err)
		os.Exit(1)
	}
}

func run() error {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 99)
	macCfg := mac.DefaultConfig()
	macCfg.DownlinkFrameLen = 149 // enable autonomous command slots
	net, err := core.Build(nw, core.DefaultConfig(topo.NumAPs), macCfg, 99)
	if err != nil {
		return err
	}
	gw := core.NewGateway(net)

	if _, ok := nw.RunUntil(sim.SlotsFor(4*time.Minute), func() bool {
		return net.JoinedCount() == topo.N()
	}); !ok {
		return fmt.Errorf("network did not converge")
	}
	fmt.Println("plant network formed; valves idle")

	// The control loop: a pressure sensor reports, the controller reacts
	// with a valve setpoint to the same device.
	sensor := topo.SuggestedSources[0]
	gw.Delivered = func(asn sim.ASN, f *sim.Frame) {
		if f.Origin == sensor {
			fmt.Printf("  controller: pressure report #%d from node %d (latency %v)\n",
				f.Seq, f.Origin, sim.TimeAt(asn-f.BornASN))
			// React: push a valve setpoint back to the device.
			if err := gw.SendCommand(sensor, []byte{byte(f.Seq)}); err != nil {
				fmt.Printf("  controller: command failed: %v\n", err)
			}
		}
	}
	commands := 0
	if err := net.OnCommand(sensor, func(asn sim.ASN, f *sim.Frame) {
		commands++
		fmt.Printf("  actuator %d: valve setpoint %d applied at t=%v\n",
			sensor, f.Payload[0], sim.TimeAt(asn))
	}); err != nil {
		return err
	}

	fmt.Printf("running 8 control rounds through sensor/actuator node %d:\n", sensor)
	for seq := uint16(0); seq < 8; seq++ {
		nw.Wake(sensor)
		if err := net.Nodes[sensor].InjectData(&sim.Frame{
			Origin: sensor, FlowID: 1, Seq: seq, BornASN: nw.ASN(),
		}); err != nil {
			return err
		}
		nw.Run(sim.SlotsFor(10 * time.Second))
	}
	nw.Run(sim.SlotsFor(20 * time.Second))

	_, path, ok := gw.RouteTo(sensor)
	if ok {
		fmt.Printf("\nlearned downlink route to node %d: AP -> %v\n", sensor, path)
	}
	fmt.Printf("closed loops completed: %d/8\n", commands)
	if commands == 0 {
		return fmt.Errorf("no commands reached the actuator")
	}
	return nil
}
