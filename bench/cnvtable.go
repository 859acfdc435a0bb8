package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/finn"
	"repro/internal/nn"
)

// writeCNVTable prints, as a markdown table, the host cost of every
// CNVW2A2 compute layer at every cnn-infer rate beside the FINN module
// that layer maps to: host ms per batch and GMAC/s on the default (int8)
// path from the traced loop t, the same on the float path from a short
// extra pass, and the module's modelled cycles per frame. Host figures are
// at the reference speed (f is the run's speed factor).
func writeCNVTable(w io.Writer, r *cnnRunner, t *tracer, seed int64, f float64) error {
	rr, err := newCNNRunner(seed)
	if err != nil {
		return err
	}
	fr := rr.(*cnnRunner)
	ft := newTracer("cnn-infer/float", false)
	prev := nn.SetInt8GEMM(false)
	defer nn.SetInt8GEMM(prev)
	// The first pass over the rates warms the float weight caches.
	for i := 0; i < 3*len(cnnRates); i++ {
		k := i % len(cnnRates)
		if i < len(cnnRates) {
			if _, err := fr.models[k].Net.PredictBatch(fr.batches[0]); err != nil {
				return err
			}
			continue
		}
		ft.beginOp(i)
		_, err := fr.tracedPredict(k, fr.batches[0], ft)
		ft.endOp()
		if err != nil {
			return err
		}
		ft.add("nn.ops."+rateLabel(cnnRates[k]), 1)
	}

	fmt.Fprintln(w, "| layer | rate | MACs/frame | FINN module | FINN cycles/frame | int8 ms/batch | int8 GMAC/s | float ms/batch | float GMAC/s |")
	fmt.Fprintln(w, "|---|---|---:|---|---:|---:|---:|---:|---:|")
	for k, rate := range cnnRates {
		label := rateLabel(rate)
		m := r.models[k]
		df, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{})
		if err != nil {
			return err
		}
		mods := map[string]*finn.Module{}
		for _, mod := range df.Modules {
			mods[mod.Name] = mod
		}
		for _, name := range uniq(r.names[k]) {
			layer := strings.TrimSuffix(strings.TrimPrefix(name, "nn."), "."+label)
			if layer == "other" {
				continue
			}
			modName := layer // dense layers map to modules named fc<i>
			if strings.HasPrefix(layer, "conv") {
				modName = "mvtu" + strings.TrimPrefix(layer, "conv")
			}
			mod := mods[modName]
			if mod == nil {
				return fmt.Errorf("no FINN module %s for layer %s", modName, layer)
			}
			cell := func(tr *tracer) (ms, gmacs float64) {
				ns := float64(tr.agg(name).totalNs) / tr.counts["nn.ops."+label] * f
				return ns / 1e6, per(float64(mod.MACs())*cnnBatch, ns)
			}
			ims, ig := cell(t)
			fms, fg := cell(ft)
			fmt.Fprintf(w, "| %s | %s | %d | %s | %d | %.3f | %.2f | %.3f | %.2f |\n",
				layer, label, mod.MACs(), modName, mod.CyclesPerFrame(), ims, ig, fms, fg)
		}
	}
	return nil
}
