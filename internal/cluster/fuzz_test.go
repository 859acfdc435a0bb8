package cluster

import (
	"math"
	"strings"
	"testing"
)

// FuzzStreamSpec drives the stream-spec parser with arbitrary input: it
// must never panic, never accept a spec that fails validation or holds a
// NaN or infinite number, never emit duplicate stream names, and always reject unknown identifiers
// with a hard error (the did-you-mean path must not crash on weird
// near-misses). Registered in verify.sh's fuzz smoke alongside the
// fault-plan fuzzer it shares grammar conventions with.
func FuzzStreamSpec(f *testing.F) {
	f.Add("")
	f.Add("cam:rate=30")
	f.Add("cam*3:rate=30,tenant=bronze;ptz:rate=60,prio=high,slo=0.05")
	f.Add("cam:rate=30,dev=0.7,interval=0.5")
	f.Add("cam:rte=30")
	f.Add("cam:prio=hgh,rate=1")
	f.Add("cam*2:rate=30;cam-1:rate=30")
	f.Add("a*999999999999999999999:rate=1")
	f.Add("x:rate=NaN")
	f.Add("x:rate=1e309")
	f.Add(";;;:::,,,===***")
	f.Add("\x00:rate=1")
	// Lexical rules every spec grammar shares.
	f.Add("cam:rate=30,")
	f.Add("cam:rate=30,slo=Inf")
	f.Add("cam:rate=30,flag")
	f.Add("cam:rate=30,wat=abc")
	f.Add("cam:rate=30,interval=1e-300")
	f.Add("cam*100001:rate=30")
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := ParseStreams(spec)
		if err != nil {
			if len(specs) != 0 {
				t.Fatalf("error %v returned alongside %d specs", err, len(specs))
			}
			return
		}
		seen := make(map[string]bool, len(specs))
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted spec fails validation: %v (input %q)", err, spec)
			}
			for _, v := range []float64{s.Rate, s.SLO, s.Deviation, s.Interval} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted spec holds a non-finite number: %+v (input %q)", s, spec)
				}
			}
			if seen[s.Name] {
				t.Fatalf("duplicate stream name %q accepted (input %q)", s.Name, spec)
			}
			seen[s.Name] = true
			if strings.ContainsAny(s.Name, ";,=") {
				t.Fatalf("stream name %q contains grammar metacharacters (input %q)", s.Name, spec)
			}
		}
	})
}
