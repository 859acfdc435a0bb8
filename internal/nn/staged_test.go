package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// TestStagedForwardMatchesLayers is the exactness grid of the staged
// path: CNVW2A2 and CNVW1A2 pruned at 0/25/50/85 %, every ScaleShift
// given random γ (an eighth of them zero, a quarter negative) and β, and
// batches of 1, 3 and 8 at 1, 2 and NumCPU workers. ForwardBatch must equal
// per-sample Forward bit for bit, and the path counters must show
// conv1–conv5, fc0 and fc1 served from levels on the bit planes, and conv0
// from floats.
func TestStagedForwardMatchesLayers(t *testing.T) {
	prevGrain := tensor.SetParallelGrain(1)
	defer tensor.SetParallelGrain(prevGrain)
	ds := dataset.SyntheticCIFAR10(2)
	xs := make([]*tensor.Tensor, 8)
	for j := range xs {
		xs[j], _ = ds.TestSample(j)
	}
	for _, build := range []func(string, int, int64) (*model.Model, error){model.CNVW2A2, model.CNVW1A2} {
		m, err := build("cifar10", 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
		if err != nil {
			t.Fatal(err)
		}
		for ri, rate := range []float64{0, 0.25, 0.5, 0.85} {
			t.Run(fmt.Sprintf("%s/p%.0f", m.Name, rate*100), func(t *testing.T) {
				pm, _, err := prune.Shrink(m, rate, gran)
				if err != nil {
					t.Fatal(err)
				}
				randomAffines(t, pm.Net, xs, rand.New(rand.NewSource(int64(ri+1))))
				want := make([]*tensor.Tensor, len(xs))
				for j, x := range xs {
					if want[j], err = pm.Net.Forward(x, false); err != nil {
						t.Fatal(err)
					}
				}
				for _, bsz := range []int{1, 3, 8} {
					for _, workers := range []int{1, 2, runtime.NumCPU()} {
						before := pathCounts(pm.Net)
						prev := tensor.SetMaxWorkers(workers)
						got, err := pm.Net.ForwardBatch(xs[:bsz])
						tensor.SetMaxWorkers(prev)
						name := fmt.Sprintf("B=%d workers=%d", bsz, workers)
						sameResults(t, name, got, err, want[:bsz], nil)
						checkStagedCounts(t, name, pm.Net, before, bsz)
					}
				}
			})
		}
	}
}

// randomAffines gives every ScaleShift of net random γ and β scaled to
// the activations reaching it on xs: γ is zero for an eighth of the
// channels and negative for a quarter, and about half the layers reach
// their top levels only now and then.
func randomAffines(t *testing.T, net *nn.Network, xs []*tensor.Tensor, rng *rand.Rand) {
	t.Helper()
	cur := append([]*tensor.Tensor(nil), xs...)
	for _, nl := range net.Layers {
		if ss, ok := nl.Layer.(*nn.ScaleShift); ok {
			var sum, sq float64
			n := 0
			for _, x := range cur {
				for _, v := range x.Data() {
					sum += float64(v)
					sq += float64(v) * float64(v)
					n++
				}
			}
			mean := sum / float64(n)
			std := math.Sqrt(max(sq/float64(n)-mean*mean, 1e-12))
			// A narrow spread below the middle of the ladder keeps the
			// top levels out of most samples, so their code tables scale
			// to a lower maxAbs.
			spread, center := 1.0, 1.0
			if rng.Intn(2) == 0 {
				spread, center = 0.3, 0.5
			}
			gd, bd := ss.Gamma.Value.Data(), ss.Beta.Value.Data()
			for c := range gd {
				g := (0.5 + rng.Float64()) * spread / std
				switch r := rng.Intn(8); {
				case r == 0:
					g = 0
				case r <= 2:
					g = -g
				}
				gd[c] = float32(g)
				bd[c] = float32(center - g*mean + rng.NormFloat64()*spread)
			}
			ss.Gamma.BumpVersion()
			ss.Beta.BumpVersion()
		}
		for j, x := range cur {
			out, err := nl.Layer.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			cur[j] = out
		}
	}
}

// pathCounts returns every quantized layer's path counters.
func pathCounts(net *nn.Network) [][3]int {
	var pcs [][3]int
	for _, nl := range net.Layers {
		switch nl.Layer.(type) {
		case *nn.Conv2D, *nn.Dense:
			ints, bits, levels := nn.PathCounts(nl.Layer)
			pcs = append(pcs, [3]int{ints, bits, levels})
		}
	}
	return pcs
}

// checkStagedCounts demands that one ForwardBatch of bsz samples served
// CNV's conv0 from floats and conv1–conv5, fc0 and fc1 from levels on the
// bit planes; the float head has no counts.
func checkStagedCounts(t *testing.T, name string, net *nn.Network, before [][3]int, bsz int) {
	t.Helper()
	after := pathCounts(net)
	names := []string{"conv0", "conv1", "conv2", "conv3", "conv4", "conv5", "fc0", "fc1", "head"}
	for i, a := range after {
		d := [3]int{a[0] - before[i][0], a[1] - before[i][1], a[2] - before[i][2]}
		want := [3]int{bsz, bsz, bsz}
		switch names[i] {
		case "conv0":
			want = [3]int{bsz, 0, 0}
		case "head":
			want = [3]int{}
		}
		if d != want {
			t.Errorf("%s %s: %d int8 samples, %d on bit planes, %d from levels; want %v", name, names[i], d[0], d[1], d[2], want)
		}
	}
}

// sameResults demands the same outputs bit for bit, or the same error
// text.
func sameResults(t *testing.T, name string, got []*tensor.Tensor, gotErr error, want []*tensor.Tensor, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for j := range want {
		if fmt.Sprint(got[j].Shape()) != fmt.Sprint(want[j].Shape()) {
			t.Fatalf("%s sample %d: shape %v, want %v", name, j, got[j].Shape(), want[j].Shape())
		}
		for i, v := range want[j].Data() {
			if math.Float32bits(got[j].Data()[i]) != math.Float32bits(v) {
				t.Fatalf("%s sample %d out[%d]: %v, want %v", name, j, i, got[j].Data()[i], v)
			}
		}
	}
}

// FuzzStagedForward runs TinyCNV with fuzzed γ and β (raw float32 bits
// for one channel of each ScaleShift, the rest drawn from seed) and fuzzed
// input bits. ForwardBatch must give the per-layer loop's outputs or error
// text, and per-sample Forward's outputs, and never panic.
func FuzzStagedForward(f *testing.F) {
	f.Add(int64(1), uint32(0x3f800000), uint32(0), []byte{0x3f, 0, 0, 0})
	f.Add(int64(2), uint32(0xbfc00000), uint32(0x3f000000), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(3), uint32(0), uint32(0x7fc00000), []byte{0x3e, 0x80, 0, 0})
	f.Add(int64(4), uint32(0x7f7fffff), uint32(0xff800000), []byte{0x7f, 0x80, 0, 0})
	f.Add(int64(5), uint32(0x80000000), uint32(0x80000000), []byte{0xff, 0xc0, 0, 1})
	m, err := model.TinyCNV("TinyCNV", "tiny", 2, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, gammaBits, betaBits uint32, pix []byte) {
		net, err := nn.CloneNetwork(m.Net)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, nl := range net.Layers {
			if ss, ok := nl.Layer.(*nn.ScaleShift); ok {
				gd, bd := ss.Gamma.Value.Data(), ss.Beta.Value.Data()
				for c := range gd {
					gd[c] = float32(rng.NormFloat64() * 4)
					bd[c] = float32(rng.NormFloat64() * 2)
				}
				c := rng.Intn(len(gd))
				gd[c], bd[c] = math.Float32frombits(gammaBits), math.Float32frombits(betaBits)
			}
		}
		xs := make([]*tensor.Tensor, 1+int(uint64(seed)%3))
		for j := range xs {
			xs[j] = tensor.New(3, 8, 8)
			for i := range xs[j].Data() {
				xs[j].Data()[i] = float32(rng.Float64())
			}
		}
		for i := 0; i+4 <= len(pix) && i/4 < len(xs)*3*8*8; i += 4 {
			b := uint32(pix[i])<<24 | uint32(pix[i+1])<<16 | uint32(pix[i+2])<<8 | uint32(pix[i+3])
			x := xs[(i/4)%len(xs)]
			x.Data()[(i/4/len(xs))%x.Len()] = math.Float32frombits(b)
		}
		want, wantErr := nn.LayerByLayerBatch(net, xs)
		got, err := net.ForwardBatch(xs)
		sameResults(t, "staged against per layer", got, err, want, wantErr)
		if wantErr != nil {
			return
		}
		for j, x := range xs {
			single, err := net.Forward(x, false)
			sameResults(t, fmt.Sprintf("sample %d against Forward", j), got[j:j+1], nil, []*tensor.Tensor{single}, err)
		}
	})
}
