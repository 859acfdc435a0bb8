package nn

import (
	"repro/internal/quant"
	"repro/internal/tensor"
)

// weightCache holds the derived views of a layer's weight matrix, keyed on
// the weight Param's identity and version so repeated inference does not
// re-quantize identical weights. Each view is built on first use after the
// key changes:
//
//   - effW, the fake-quantized float matrix that the float body, Backward
//     and the dataflow compiler consume (EffectiveWeights);
//   - effWB and effWScales, the int8 grid codes of the integer body packed
//     as bit planes, and their scales (one per row, or one for
//     tensor-wide quantization). The code matrix itself is dropped once
//     packed.
//
// quantRuns counts quantizer passes, one per float or code view per
// version, for the regression tests guarding the cache.
type weightCache struct {
	of      *Param
	version uint64

	effW       *tensor.Tensor
	effWB      *tensor.BitplaneWeights
	effWScales []float32

	quantRuns int
}

// keyOn drops every view unless it was built from w at its current
// version.
func (wc *weightCache) keyOn(w *Param) {
	if v := w.Version(); wc.of != w || wc.version != v {
		*wc = weightCache{of: w, version: v, quantRuns: wc.quantRuns}
	}
}

// floatWeights returns w fake-quantized by q as a rows-row matrix, one
// adaptive scale per rowLen values (rowLen = the whole matrix for
// tensor-wide quantization). Callers must treat it as read-only.
func (wc *weightCache) floatWeights(w *Param, q *quant.WeightQuantizer, rows, rowLen int) (*tensor.Tensor, error) {
	wc.keyOn(w)
	if wc.effW == nil {
		src := w.Value.Data()
		m := tensor.New(rows, len(src)/rows)
		if _, err := q.QuantizeTensor(m.Data(), src, rowLen); err != nil {
			return nil, err
		}
		wc.effW = m
		wc.quantRuns++
	}
	return wc.effW, nil
}

// bitplanes returns the int8 grid codes of the matrix floatWeights builds
// from the same arguments, packed as bit planes for geometry g, and their
// scales.
func (wc *weightCache) bitplanes(w *Param, q *quant.WeightQuantizer, rows, rowLen int, g tensor.ConvGeom) (*tensor.BitplaneWeights, []float32, error) {
	wc.keyOn(w)
	if wc.effWB == nil {
		src := w.Value.Data()
		m := tensor.NewInt8Matrix(rows, len(src)/rows)
		scales, err := q.QuantizeTensorInt8(m.Data, src, rowLen)
		if err != nil {
			return nil, nil, err
		}
		wb, err := tensor.PackBitplaneWeights(m, g)
		if err != nil {
			return nil, nil, err
		}
		wc.effWB, wc.effWScales = wb, scales
		wc.quantRuns++
	}
	return wc.effWB, wc.effWScales, nil
}
