// Command adaflow-explore searches the PE/SIMD folding design space of a
// CNV accelerator: either hit one or more throughput targets with minimal
// unfolding or maximize throughput within a LUT budget.
//
// Usage:
//
//	adaflow-explore [-model CNVW2A2|CNVW1A2] [-dataset cifar10|gtsrb]
//	                [-target-fps F[,F...] | -lut-budget N] [-flexible]
//
// A comma-separated -target-fps list explores the whole throughput
// frontier from one greedy walk; results are printed in target order.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/explore"
	"repro/internal/finn"
	"repro/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaflow-explore: ")
	modelName := flag.String("model", "CNVW2A2", "CNVW2A2 or CNVW1A2")
	ds := flag.String("dataset", "cifar10", "cifar10 or gtsrb")
	targetFPS := flag.String("target-fps", "", "throughput target(s) in frames per second, comma-separated")
	lutBudget := flag.Int("lut-budget", 0, "LUT budget (alternative to -target-fps)")
	flexible := flag.Bool("flexible", false, "explore the flexible (runtime-controllable) variant")
	describe := flag.Bool("describe", false, "print the per-module dataflow map of the result (single target only)")
	flag.Parse()

	classes := 10
	if *ds == "gtsrb" {
		classes = 43
	}
	var m *model.Model
	var err error
	switch *modelName {
	case "CNVW2A2":
		m, err = model.CNVW2A2(*ds, classes, 1)
	case "CNVW1A2":
		m, err = model.CNVW1A2(*ds, classes, 1)
	default:
		log.Fatalf("unknown model %q", *modelName)
	}
	if err != nil {
		log.Fatal(err)
	}

	var targets []float64
	if *targetFPS != "" {
		for _, s := range strings.Split(*targetFPS, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				log.Fatalf("bad -target-fps entry %q: %v", s, err)
			}
			targets = append(targets, f)
		}
	}

	opts := explore.Options{Flexible: *flexible, MaxIterations: 10000}
	switch {
	case len(targets) > 0 && *lutBudget > 0:
		log.Fatal("use either -target-fps or -lut-budget, not both")
	case len(targets) > 1:
		pts := explore.Frontier(m, targets, opts)
		fmt.Printf("%-12s %-12s %-8s %-9s %-9s %-6s %-6s %s\n",
			"target", "FPS", "steps", "LUT", "FF", "BRAM", "DSP", "bottleneck")
		for _, pt := range pts {
			if pt.Result == nil {
				fmt.Printf("%-12.1f (no design point: %v)\n", pt.TargetFPS, pt.Err)
				continue
			}
			r := pt.Result
			note := ""
			if pt.Err != nil {
				note = "  (best effort)"
			}
			fmt.Printf("%-12.1f %-12.1f %-8d %-9d %-9d %-6d %-6d %s%s\n",
				pt.TargetFPS, r.FPS, r.Iterations, r.Res.LUT, r.Res.FF, r.Res.BRAM, r.Res.DSP,
				r.Bottleneck, note)
		}
	case len(targets) == 1:
		res, err := explore.TargetFPS(m, targets[0], opts)
		report(m, res, err, *flexible, *describe)
	case *lutBudget > 0:
		res, err := explore.MaxFPSWithin(m, *lutBudget, opts)
		report(m, res, err, *flexible, *describe)
	default:
		log.Fatal("specify -target-fps or -lut-budget")
	}
}

func report(m *model.Model, res *explore.Result, err error, flexible, describe bool) {
	if err != nil {
		log.Printf("search note: %v", err)
	}
	if res == nil {
		log.Fatal("no design point found")
	}
	fmt.Printf("design point after %d unfolding steps (bottleneck: %s)\n", res.Iterations, res.Bottleneck)
	fmt.Printf("  throughput: %.1f FPS\n", res.FPS)
	fmt.Printf("  resources:  LUT=%d FF=%d BRAM=%d DSP=%d\n",
		res.Res.LUT, res.Res.FF, res.Res.BRAM, res.Res.DSP)
	fmt.Printf("  conv PE:    %v\n", res.Folding.ConvPE)
	fmt.Printf("  conv SIMD:  %v\n", res.Folding.ConvSIMD)
	fmt.Printf("  dense PE:   %v\n", res.Folding.DensePE)
	fmt.Printf("  dense SIMD: %v\n", res.Folding.DenseSIMD)
	if describe {
		df, err := finn.Map(m, res.Folding, finn.Options{Flexible: flexible})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		df.Describe(os.Stdout)
	}
}
