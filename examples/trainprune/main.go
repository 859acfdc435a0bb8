// Trainprune: exercise the full train → prune → retrain → evaluate
// mechanism on a tiny quantized model, then round-trip the pruned model
// through the serialization format (the paper's ONNX-export step) and
// verify the reloaded model computes identically.
//
// Run with: go run ./examples/trainprune
package main

import (
	"bytes"
	"fmt"
	"log"
	"runtime"

	adaflow "repro"
	"repro/internal/accuracy"
	"repro/internal/finn"
	"repro/internal/prune"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)

	ds := adaflow.TinyDataset(7)
	m, err := adaflow.NewTinyCNV("tinycnv-w2a2", ds.Name, 2, ds.Classes, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Initial training; evaluation fans out over all cores (predictions
	// are exact, only wall-clock changes).
	workers := runtime.NumCPU()
	opts := adaflow.DefaultTrainOptions()
	opts.Epochs = 3
	opts.EvalWorkers = workers
	tr, err := train.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tr.Fit(m, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial model: %d params, train %.1f%%, test %.1f%%\n",
		m.Net.ParamCount(), res.TrainAcc*100, res.TestAcc*100)

	// Dataflow-aware pruning at 50% under the default folding constraints.
	fold := finn.DefaultFolding(m)
	gran, err := fold.ChannelGranularity(m)
	if err != nil {
		log.Fatal(err)
	}
	pruned, plan, err := prune.Shrink(m, 0.5, gran)
	if err != nil {
		log.Fatal(err)
	}
	before, err := train.ParallelEvaluate(pruned, ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pruned 50%% (effective %.1f%%): channels %v → %v, test %.1f%% before retraining\n",
		plan.EffectiveRate*100, m.ConvChannels(), pruned.ConvChannels(), before*100)

	// Retraining recovers accuracy (paper §IV-A1).
	rtr, err := train.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := rtr.Fit(pruned, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after retraining: %d params, test %.1f%%\n", pruned.Net.ParamCount(), res2.TestAcc*100)
	frac, err := accuracy.EffectivePruneFraction(pruned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("effective prune fraction: %.2f\n", frac)

	// Export/import round trip (the ONNX step in the paper's flow).
	var buf bytes.Buffer
	if err := adaflow.SaveModel(&buf, pruned); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	back, err := adaflow.LoadModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	accBack, err := train.ParallelEvaluate(back, ds, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized %d bytes; reloaded model test accuracy %.1f%% (identical: %v)\n",
		size, accBack*100, accBack == res2.TestAcc)
}
