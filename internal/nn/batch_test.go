package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Bit-identity acceptance for the micro-batched inference path:
// ForwardBatch(B frames) must equal B sequential Forward calls exactly —
// float and int8 paths, at 1, 2 and NumCPU workers. The oracle
// (oracle_test.go) checks the integer outputs against brute force.

// testBatchNet builds a small conv→relu→pool→flatten→dense network plus a
// batch of random inputs. Quantized when bits > 0 (per-channel conv).
// staged replaces the ReLU with ScaleShift → QuantAct (random γ and β,
// 2-bit activations), so ForwardBatch carries levels from the conv to the
// dense layer.
func testBatchNet(t *testing.T, bits, batch int, seed int64, staged bool) (*Network, []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var wq *quant.WeightQuantizer
	if bits > 0 {
		q, err := quant.NewWeightQuantizer(bits)
		if err != nil {
			t.Fatal(err)
		}
		wq = q
	}
	conv, err := NewConv2D(ConvConfig{
		ID:   "c1",
		Geom: tensor.ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 6, Bias: true, WQuant: wq, PerChannel: bits > 0, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range conv.Bias.Value.Data() {
		conv.Bias.Value.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	pool, err := NewMaxPool2D("p1", tensor.ConvGeom{
		InC: 6, InH: 12, InW: 12, KH: 2, KW: 2, StrideH: 2, StrideW: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(DenseConfig{ID: "d1", In: 6 * 6 * 6, Out: 10, Bias: true, WQuant: wq, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(conv, NewReLU("r1"), pool, NewFlatten("f1"), dense)
	if staged {
		ss, err := NewScaleShift("s1", 6)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ss.Channels {
			ss.Gamma.Value.Data()[c] = float32(rng.NormFloat64() * 2)
			ss.Beta.Value.Data()[c] = float32(1 + rng.NormFloat64())
		}
		aq, err := quant.NewActQuantizer(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		act, err := NewQuantAct("a1", aq)
		if err != nil {
			t.Fatal(err)
		}
		net = NewNetwork(conv, ss, act, pool, NewFlatten("f1"), dense)
	}
	xs := make([]*tensor.Tensor, batch)
	for j := range xs {
		x := tensor.New(3, 12, 12)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.NormFloat64())
		}
		xs[j] = x
	}
	return net, xs
}

func TestForwardBatchBitIdentical(t *testing.T) {
	prevGrain := tensor.SetParallelGrain(1)
	defer tensor.SetParallelGrain(prevGrain)
	for _, tc := range []struct {
		name   string
		bits   int
		int8   bool
		staged bool
	}{
		{"float", 0, false, false},
		{"quantized-float-path", 2, false, false},
		{"int8", 2, true, false},
		{"staged-float-path", 2, false, true},
		{"staged", 2, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := SetInt8GEMM(tc.int8)
			defer SetInt8GEMM(prev)
			for _, batch := range []int{1, 3, 8} {
				for _, workers := range []int{1, 2, runtime.NumCPU()} {
					prevW := tensor.SetMaxWorkers(workers)
					net, xs := testBatchNet(t, tc.bits, batch, 91, tc.staged)
					// Reference: B sequential single-sample forwards.
					want := make([]*tensor.Tensor, len(xs))
					for j, x := range xs {
						out, err := net.Forward(x, false)
						if err != nil {
							t.Fatal(err)
						}
						want[j] = out
					}
					got, err := net.ForwardBatch(xs)
					tensor.SetMaxWorkers(prevW)
					if err != nil {
						t.Fatal(err)
					}
					for j := range xs {
						gd, wd := got[j].Data(), want[j].Data()
						if len(gd) != len(wd) {
							t.Fatalf("batch=%d workers=%d sample %d: length %d want %d",
								batch, workers, j, len(gd), len(wd))
						}
						for i := range gd {
							if gd[i] != wd[i] {
								t.Fatalf("batch=%d workers=%d sample %d out[%d]: batched %v sequential %v",
									batch, workers, j, i, gd[i], wd[i])
							}
						}
					}
				}
			}
		})
	}
}

// The batched path must actually take the integer body: int8 batch
// forwards count as int forwards, never float fallbacks, and in the staged
// variant the dense layer reads the conv's levels.
func TestForwardBatchTakesInt8Path(t *testing.T) {
	prev := SetInt8GEMM(true)
	defer SetInt8GEMM(prev)
	for _, staged := range []bool{false, true} {
		net, xs := testBatchNet(t, 2, 4, 92, staged)
		if _, err := net.ForwardBatch(xs); err != nil {
			t.Fatal(err)
		}
		conv := net.Convs()[0]
		dense := net.Denses()[0]
		if conv.intForwards != 4 || conv.floatFwds != 0 {
			t.Fatalf("staged=%v conv batch: int=%d float=%d, want 4/0", staged, conv.intForwards, conv.floatFwds)
		}
		if dense.intForwards != 4 || dense.floatFwds != 0 {
			t.Fatalf("staged=%v dense batch: int=%d float=%d, want 4/0", staged, dense.intForwards, dense.floatFwds)
		}
		if want := map[bool]int32{true: 4}[staged]; dense.levelForwards != want {
			t.Fatalf("staged=%v dense batch: %d from levels, want %d", staged, dense.levelForwards, want)
		}
	}
}

// raceEnabled is set by race_test.go in builds with the race detector.
var raceEnabled bool

// TestConvForwardBatchAllocs guards the steady-state allocations of a
// batch of 8 through CNVW2A2's unpruned conv1 (64→64 channels, 30×30 in,
// 2-bit activations on two planes). The ceiling is the count measured
// before the bit planes existed: their scratch comes from the arena, not
// from make. AllocsPerRun pins GOMAXPROCS to 1
// and the worker cap is pinned to 2, so the count is the same everywhere.
func TestConvForwardBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	forceInt8(t)
	prevW := tensor.SetMaxWorkers(2)
	defer tensor.SetMaxWorkers(prevW)
	rng := rand.New(rand.NewSource(96))
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConv2D(ConvConfig{
		ID:   "conv1",
		Geom: tensor.ConvGeom{InC: 64, InH: 30, InW: 30, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		OutC: 64, WQuant: q, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, 8)
	for j := range xs {
		xs[j] = tensor.New(64, 30, 30)
		for i := range xs[j].Data() {
			xs[j].Data()[i] = float32(rng.Intn(4)) * 0.5
		}
	}
	if _, err := c.ForwardBatch(xs); err != nil { // fills the weight cache
		t.Fatal(err)
	}
	const ceiling = 80 // measured before the bit planes
	got := testing.AllocsPerRun(10, func() {
		if _, err := c.ForwardBatch(xs); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("%v allocs per batch, ceiling %d", got, ceiling)
	}
	if c.floatFwds != 0 {
		t.Errorf("%d samples on the float body, want none", c.floatFwds)
	}
	t.Logf("%v allocs per batch", got)
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	net, xs := testBatchNet(t, 2, 5, 93, false)
	classes, err := net.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range xs {
		want, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if classes[j] != want {
			t.Fatalf("sample %d: batch class %d, single %d", j, classes[j], want)
		}
	}
}

func TestForwardBatchEmpty(t *testing.T) {
	net, _ := testBatchNet(t, 0, 1, 94, false)
	if _, err := net.ForwardBatch(nil); err == nil {
		t.Fatal("empty batch should error")
	}
}

// BenchmarkForwardBatch shows the per-frame amortization of batched
// serving on the compute core (int8 path): batch=8 streams each weight
// panel once per batch.
func BenchmarkForwardBatch(b *testing.B) {
	prev := SetInt8GEMM(true)
	defer SetInt8GEMM(prev)
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(95))
			q, err := quant.NewWeightQuantizer(2)
			if err != nil {
				b.Fatal(err)
			}
			conv, err := NewConv2D(ConvConfig{
				ID:   "c",
				Geom: tensor.ConvGeom{InC: 16, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
				OutC: 32, Bias: true, WQuant: q, PerChannel: true, InitRNG: rng,
			})
			if err != nil {
				b.Fatal(err)
			}
			dense, err := NewDense(DenseConfig{ID: "d", In: 32 * 32 * 32, Out: 64, Bias: true, WQuant: q, InitRNG: rng})
			if err != nil {
				b.Fatal(err)
			}
			net := NewNetwork(conv, NewReLU("r"), NewFlatten("f"), dense)
			xs := make([]*tensor.Tensor, batch)
			for j := range xs {
				x := tensor.New(16, 32, 32)
				for i := range x.Data() {
					x.Data()[i] = float32(rng.NormFloat64())
				}
				xs[j] = x
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.ForwardBatch(xs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/frame")
		})
	}
}
