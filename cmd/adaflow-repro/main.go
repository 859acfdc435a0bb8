// Command adaflow-repro regenerates the paper's tables and figures from
// the simulation substrates and prints them as text, with the published
// values alongside where the paper reports them.
//
// Usage:
//
//	adaflow-repro [-exp all|fig1a|fig1b|fig5a|fig5b|fig5c|table1|fig6|ablations|churn|pool|engine|mlp]
//	              [-runs N] [-seed S] [-format text|csv]
//
// CSV output is supported for the paper's figures/tables (not ablations).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/tensor"
)

// csvWriter is implemented by the exportable results.
type csvWriter interface{ WriteCSV(io.Writer) error }

// textWriter is implemented by every result.
type textWriter interface{ WriteText(io.Writer) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaflow-repro: ")
	exp := flag.String("exp", "all", "experiment to regenerate")
	runs := flag.Int("runs", 100, "simulation repetitions (the paper averages 100)")
	seed := flag.Int64("seed", 1, "base seed")
	format := flag.String("format", "text", "text or csv")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for the tensor compute core and model evaluation")
	flag.Parse()
	if *format != "text" && *format != "csv" {
		log.Fatalf("unknown format %q", *format)
	}
	if *workers < 1 {
		log.Fatalf("-workers must be >= 1, got %d", *workers)
	}
	tensor.SetMaxWorkers(*workers)

	run := func(name string) bool { return *exp == "all" || *exp == name }
	did := false
	w := os.Stdout
	emit := func(r textWriter) {
		if *format == "csv" {
			if cw, ok := r.(csvWriter); ok {
				if err := cw.WriteCSV(w); err != nil {
					log.Fatal(err)
				}
				fmt.Fprintln(w)
				return
			}
			log.Printf("no CSV export for %T; falling back to text", r)
		}
		r.WriteText(w)
		fmt.Fprintln(w)
	}

	if run("fig1a") {
		did = true
		r, err := experiments.Fig1a()
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("fig1b") {
		did = true
		r, err := experiments.Fig1b(*runs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("fig5a") {
		did = true
		r, err := experiments.Fig5a()
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("fig5b") {
		did = true
		r, err := experiments.Fig5bc("cifar10")
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("fig5c") {
		did = true
		r, err := experiments.Fig5bc("gtsrb")
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("table1") {
		did = true
		r, err := experiments.Table1(*runs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("fig6") {
		did = true
		r, err := experiments.Fig6(*seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("ablations") {
		did = true
		a1, err := experiments.AblationSwitchCriteria(nil, *runs/5+1, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(a1)
		a2, err := experiments.AblationThreshold(nil, *runs/5+1, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(a2)
		a3, err := experiments.AblationConstraintRelax()
		if err != nil {
			log.Fatal(err)
		}
		emit(a3)
		a4, err := experiments.AblationPolicy(*runs/5+1, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(a4)
		a5, err := experiments.AblationQueue(nil, *runs/5+1, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(a5)
	}
	if run("churn") {
		did = true
		r, err := experiments.ExtChurn(*runs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("pool") {
		did = true
		r, err := experiments.ExtPoolScaling(*runs/5+1, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("engine") {
		did = true
		r, err := experiments.ExtEngineComparison()
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if run("mlp") {
		did = true
		r, err := experiments.ExtMLPNeuronPruning()
		if err != nil {
			log.Fatal(err)
		}
		emit(r)
	}
	if !did {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
