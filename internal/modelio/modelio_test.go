package modelio

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// equalTensors reports whether two tensors have identical shape and
// elements.
func equalTensors(a, b *tensor.Tensor) bool {
	return slices.Equal(a.Shape(), b.Shape()) && slices.Equal(a.Data(), b.Data())
}

// encoded returns m's serialized envelope.
func encoded(tb testing.TB, m *model.Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func roundTrip(t *testing.T, m *model.Model) *model.Model {
	t.Helper()
	back, err := Decode(bytes.NewReader(encoded(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripPreservesForward(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	x := tensor.New(3, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(i%7) * 0.1
	}
	a, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTensors(a, b) {
		t.Fatal("round-tripped model computes different outputs")
	}
}

func TestRoundTripPreservesMetadata(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	pr, _, err := prune.Shrink(m, 0.5, prune.Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, pr)
	if back.Name != pr.Name || back.Dataset != pr.Dataset {
		t.Fatal("identity lost")
	}
	if back.PruneRate != 0.5 {
		t.Fatalf("prune rate = %v", back.PruneRate)
	}
	gotCh := back.ConvChannels()
	wantCh := pr.ConvChannels()
	for i := range wantCh {
		if gotCh[i] != wantCh[i] {
			t.Fatalf("channels %v != %v", gotCh, wantCh)
		}
	}
	if len(back.BaseChannels) != 2 || back.BaseChannels[0] != 8 {
		t.Fatalf("base channels %v", back.BaseChannels)
	}
}

func TestEnvelopeCarriesChannelMetadata(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := encoded(t, m)
	// The flexible accelerator's runtime ports read this field.
	if !bytes.Contains(b, []byte(`"channels":[8,16]`)) {
		t.Fatal("channel metadata missing from envelope")
	}
}

func TestRoundTripMixedPrecision(t *testing.T) {
	m, err := model.Build(model.Config{
		Name: "mixed", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{8, 16}, PoolAfter: []int{1}, DenseSizes: []int{32},
		InputWBits: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	convs := back.Net.Convs()
	if convs[0].Quant == nil || convs[0].Quant.Bits != 8 {
		t.Fatalf("conv0 quantizer lost: %+v", convs[0].Quant)
	}
	if convs[1].Quant == nil || convs[1].Quant.Bits != 2 {
		t.Fatalf("conv1 quantizer wrong: %+v", convs[1].Quant)
	}
	// Forward equality still holds.
	x := tensor.New(3, 8, 8)
	x.Fill(0.3)
	a, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTensors(a, b) {
		t.Fatal("mixed-precision round trip changed outputs")
	}
}

// TestRoundTripDenseWBits: a dense layer whose grid differs from the
// model's (an 8-bit fc0 in a 2-bit model) keeps it through a round trip.
func TestRoundTripDenseWBits(t *testing.T) {
	m, err := model.Build(model.Config{
		Name: "dense8", Dataset: "tiny-syn", WBits: 2, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: 4,
		ConvChannels: []int{8, 16}, PoolAfter: []int{1}, DenseSizes: []int{32},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q8, err := quant.NewWeightQuantizer(8)
	if err != nil {
		t.Fatal(err)
	}
	m.Net.Denses()[0].Quant = q8
	back := roundTrip(t, m)
	ds := back.Net.Denses()
	if ds[0].Quant == nil || ds[0].Quant.Bits != 8 {
		t.Fatalf("fc0 quantizer lost: %+v", ds[0].Quant)
	}
	if last := ds[len(ds)-1]; last.Quant != nil && last.Quant.Bits != 2 {
		t.Fatalf("fc%d quantizer %d-bit, want the model's 2", len(ds)-1, last.Quant.Bits)
	}
	x := tensor.New(3, 8, 8)
	x.Fill(0.3)
	a, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTensors(a, b) {
		t.Fatal("8-bit fc0 round trip changed outputs")
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Decode(strings.NewReader(`{"version":1,"layers":[{"kind":"alien"}]}`)); err == nil {
		t.Fatal("unknown layer kind accepted")
	}
}

func TestDecodeRejectsTruncatedWeights(t *testing.T) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := encoded(t, m)
	// Corrupt a weight payload by shrinking it.
	s := string(b)
	i := strings.Index(s, `"w":"`)
	if i < 0 {
		t.Fatal("no weight field found")
	}
	corrupted := s[:i+5] + "QUJD" + s[strings.Index(s[i+5:], `"`)+i+5:]
	if _, err := Decode(strings.NewReader(corrupted)); err == nil {
		t.Fatal("truncated weights accepted")
	}
}
