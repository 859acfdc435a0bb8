package modelio

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// FuzzDecode hardens the deserializer: no input may panic it, and any
// input it accepts must decode into a model whose network runs. The seed
// corpus covers a valid envelope plus structured corruptions; `go test`
// runs the seeds, `go test -fuzz=FuzzDecode` explores further.
func FuzzDecode(f *testing.F) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	valid := encoded(f, m)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"layers":[]}`))
	f.Add([]byte(`{"version":1,"layers":[{"kind":"conv","out_c":-1}]}`))
	f.Add([]byte(`{"version":1,"layers":[{"kind":"dense","in":1,"out":1,"w":"AAAA"}]}`))
	f.Add([]byte(`{"version":1,"wbits":99}`))
	// Truncations of the valid envelope.
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 2} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if m == nil || m.Net == nil {
			t.Fatal("accepted input produced nil model")
		}
		// Accepted models must at least enumerate their parameters without
		// crashing.
		_ = m.Net.ParamCount()
		_ = m.ConvChannels()
	})
}
