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
//   - effWQ and effWScales, the int8 grid codes of the integer body and
//     their scales (one per row, or one for tensor-wide quantization);
//   - effWB, the codes packed as bit planes for convolutions whose codes
//     are all in {−1, 0, 1}, nil otherwise.
//
// quantRuns counts quantizer passes, one per float or code view per
// version, for the regression tests guarding the cache.
type weightCache struct {
	of      *Param
	version uint64

	effW       *tensor.Tensor
	effWQ      *tensor.Int8Matrix
	effWScales []float32
	effWB      *tensor.BitplaneWeights
	packed     bool // effWB is built (it stays nil for wider codes)

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

// int8Weights returns the int8 grid codes of the matrix floatWeights
// builds from the same arguments, and their scales.
func (wc *weightCache) int8Weights(w *Param, q *quant.WeightQuantizer, rows, rowLen int) (*tensor.Int8Matrix, []float32, error) {
	wc.keyOn(w)
	if wc.effWQ == nil {
		src := w.Value.Data()
		m := tensor.NewInt8Matrix(rows, len(src)/rows)
		scales, err := q.QuantizeTensorInt8(m.Data, src, rowLen)
		if err != nil {
			return nil, nil, err
		}
		wc.effWQ, wc.effWScales = m, scales
		wc.quantRuns++
	}
	return wc.effWQ, wc.effWScales, nil
}

// bitplanes returns the codes of the preceding int8Weights call packed as
// bit planes for geometry g, or nil when a code is outside {−1, 0, 1}.
func (wc *weightCache) bitplanes(g tensor.ConvGeom) (*tensor.BitplaneWeights, error) {
	if !wc.packed {
		wb, err := tensor.PackBitplaneWeights(wc.effWQ, g)
		if err != nil {
			return nil, err
		}
		wc.effWB, wc.packed = wb, true
	}
	return wc.effWB, nil
}
