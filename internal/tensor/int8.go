package tensor

import "fmt"

// The integer fast path: int8×int8 products with exact integer
// accumulation, on the same worker pool as the float kernels in gemm.go.
// Quantized layers in internal/nn route their inference products here so
// the int8 representation produced by internal/quant is computed on
// directly instead of being dequantized to float first; a single float
// rescale at the output recovers real units. Integer accumulation is exact
// and associative, so results are bit-identical across any worker count
// or tile schedule by construction — a stronger guarantee than the float
// kernels' order-preservation argument.
//
// There is one kernel, a convolution over a batch, and a dense layer is a
// 1×1 convolution over one pixel: ConvBitplaneBatchInto (bitplane.go)
// splits the weight codes into ternary planes (PackBitplaneWeights) and
// each sample's codes into bit planes, and counts bits with AND and
// popcount instead of multiplying.

// Int8Matrix is a dense row-major int8 matrix, the storage format of
// quantized weights on the integer path.
type Int8Matrix struct {
	Rows, Cols int
	Data       []int8
}

// NewInt8Matrix returns a zero-filled rows×cols int8 matrix.
func NewInt8Matrix(rows, cols int) *Int8Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative int8 matrix dimension %dx%d", rows, cols))
	}
	return &Int8Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
}
