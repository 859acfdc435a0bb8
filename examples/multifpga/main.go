// Multifpga: scale the AdaFlow edge server to a pool of FPGAs (the
// authors' multi-FPGA follow-up direction). A 3-board pool serves 60
// cameras under the unpredictable workload; compare with a single board
// trying to serve the same stream.
//
// Run with: go run ./examples/multifpga
package main

import (
	"fmt"
	"log"

	adaflow "repro"
	"repro/internal/edge"
	"repro/internal/manager"
	"repro/internal/multiedge"
)

func main() {
	log.SetFlags(0)

	m, err := adaflow.NewCNVW2A2("cifar10", 10, 1)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := adaflow.NewCalibratedEvaluator("CNVW2A2", "cifar10")
	if err != nil {
		log.Fatal(err)
	}
	lib, err := adaflow.GenerateLibrary(m, adaflow.LibraryConfig{Evaluator: ev})
	if err != nil {
		log.Fatal(err)
	}

	// 60 cameras: 1800 FPS mean — far beyond one board.
	scn, err := adaflow.ParseScenario("base:name=scenario2,devices=60 | unpredictable")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d cameras x %.0f FPS (%s)\n\n", scn.Devices, scn.PerDeviceFPS, scn.Name)

	single, err := manager.New(lib, manager.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sres, err := adaflow.RunEdge(scn, edge.NewAdaFlow(single), adaflow.SimConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s loss %6.2f%%  QoE %6.2f%%  power %6.3f W  %6.1f inf/J\n",
		"1 board", sres.FrameLossPct, sres.QoEPct, sres.AvgPowerW, sres.PowerEff)

	for _, boards := range []int{2, 3, 4} {
		pool, err := multiedge.NewSupervisedPool(lib, multiedge.Config{Boards: boards, Manager: manager.DefaultConfig()})
		if err != nil {
			log.Fatal(err)
		}
		res, err := adaflow.RunEdge(scn, pool, adaflow.SimConfig{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s loss %6.2f%%  QoE %6.2f%%  power %6.3f W  %6.1f inf/J  (%d switches, %d reconfigs)\n",
			fmt.Sprintf("%d-board pool", boards), res.FrameLossPct, res.QoEPct,
			res.AvgPowerW, res.PowerEff, pool.Switches(), pool.Reconfigs())
	}
}
