package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestParseStreams(t *testing.T) {
	specs, err := ParseStreams(
		"cam*3:rate=30,tenant=bronze;" +
			"ptz:rate=60,prio=high,tenant=gold,slo=0.05,dev=0.7,interval=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("parsed %d streams, want 4", len(specs))
	}
	for i, want := range []string{"cam-0", "cam-1", "cam-2", "ptz"} {
		if specs[i].Name != want {
			t.Errorf("stream %d name = %q, want %q", i, specs[i].Name, want)
		}
	}
	cam := specs[0]
	if cam.Rate != 30 || cam.Tenant != "bronze" || cam.Class != Normal {
		t.Errorf("cam-0 = %+v, want rate 30, tenant bronze, normal priority", cam)
	}
	// Unset keys take the documented defaults.
	if cam.Deviation != 0.3 || cam.Interval != 5 || cam.SLO != 0 {
		t.Errorf("cam-0 defaults = %+v, want dev 0.3, interval 5, slo 0", cam)
	}
	ptz := specs[3]
	if ptz.Class != High || ptz.SLO != 0.05 || ptz.Deviation != 0.7 || ptz.Interval != 0.5 {
		t.Errorf("ptz = %+v", ptz)
	}
}

// TestParseStreamsScenario: the scn= key adopts a named workload
// scenario's shape — phase deviation/interval plus the diurnal cycle —
// with later explicit keys overriding the adopted values.
func TestParseStreamsScenario(t *testing.T) {
	specs, err := ParseStreams("cam*2:rate=30,scn=diurnal;ptz:rate=60,scn=paper2,dev=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cam := specs[0]
	if cam.Scenario != "diurnal" || cam.Diurnal == nil {
		t.Fatalf("cam-0 did not adopt the diurnal scenario: %+v", cam)
	}
	if cam.Deviation != 0.15 || cam.Interval != 1 {
		t.Errorf("cam-0 adopted shape = dev %v interval %v, want 0.15/1", cam.Deviation, cam.Interval)
	}
	if cam.Diurnal.Period != 20 || cam.Diurnal.Amplitude != 0.45 {
		t.Errorf("cam-0 diurnal = %+v, want period 20 amp 0.45", cam.Diurnal)
	}
	ptz := specs[2]
	if ptz.Scenario != "paper2" || ptz.Diurnal != nil {
		t.Fatalf("ptz adoption = %+v", ptz)
	}
	if ptz.Deviation != 0.5 {
		t.Errorf("explicit dev=0.5 after scn= did not win: %v", ptz.Deviation)
	}

	for _, tc := range []struct{ spec, want string }{
		{"cam:rate=30,scn=diurnl", `did you mean "diurnal"?`},
		{"cam:rate=30,scn=flash", "cannot carry"},
		{"cam:rate=30,scn=heavytail", "cannot carry"},
		{"cam:rate=30,scn=paper12", "phases"},
	} {
		_, err := ParseStreams(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseStreams(%q) error %v does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseStreamsEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		if specs, err := ParseStreams(spec); err != nil || len(specs) != 0 {
			t.Errorf("ParseStreams(%q) = %v, %v; want empty, nil", spec, specs, err)
		}
	}
}

// TestParseStreamsErrors: misdeclared streams are hard errors — never a
// silent default — and near-miss identifiers get a did-you-mean hint,
// matching the fault-plan grammar conventions.
func TestParseStreamsErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"missing colon", "cam rate=30", "missing ':'"},
		{"missing rate", "cam:prio=high", "missing required rate="},
		{"bad count", "cam*zero:rate=30", "invalid count"},
		{"zero count", "cam*0:rate=30", "invalid count"},
		{"empty name", "*3:rate=30", "empty name"},
		{"bad number", "cam:rate=fast", "not a number"},
		{"bare key", "cam:rate", "not key=value"},
		{"unknown key", "cam:rte=30", `unknown parameter "rte" (did you mean "rate"?)`},
		{"unknown priority", "cam:rate=30,prio=hgh", `unknown priority "hgh" (did you mean "high"?)`},
		{"empty tenant", "cam:rate=30,tenant=", "empty tenant"},
		{"negative rate", "cam:rate=-5", "non-positive rate"},
		{"deviation range", "cam:rate=30,dev=1.5", "outside [0,1]"},
		{"negative slo", "cam:rate=30,slo=-1", "negative SLO"},
		{"duplicate expanded", "cam*2:rate=30;cam-1:rate=30", `duplicate stream name "cam-1"`},
		{"NaN rate", "a:rate=30;b:rate=NaN", "rate=NaN is not a finite number"},
		{"+Inf rate", "cam:rate=+Inf", "rate=+Inf is not a finite number"},
		{"NaN slo", "cam:rate=30,slo=NaN", "slo=NaN is not a finite number"},
		{"+Inf slo", "cam:rate=30,slo=Inf", "slo=+Inf is not a finite number"},
		{"-Inf slo", "cam:rate=30,slo=-Inf", "slo=-Inf is not a finite number"},
		{"NaN dev", "cam:rate=30,dev=NaN", "dev=NaN is not a finite number"},
		{"NaN interval", "cam:rate=30,interval=NaN", "interval=NaN is not a finite number"},
		{"+Inf interval", "cam:rate=30,interval=Inf", "interval=+Inf is not a finite number"},
		{"-Inf interval", "cam:rate=30,interval=-Inf", "interval=-Inf is not a finite number"},
		{"interval floor", "cam:rate=30,interval=0.0009", "interval 0.0009 below the 0.001 s floor"},
		{"tiny interval", "cam:rate=30,interval=1e-300", "below the 0.001 s floor"},
		{"stream bound", "cam*100001:rate=30", "more than 100000 streams"},
		{"stream bound summed", "a*60000:rate=30;b*40001:rate=30", "more than 100000 streams"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseStreams(tc.spec)
			if err == nil {
				t.Fatalf("ParseStreams(%q) accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseStreams(%q) error %q does not mention %q", tc.spec, err, tc.want)
			}
		})
	}
}

// TestStreamSpecValidateNonFinite: specs built in Go get the same
// finite-number check as parsed ones, on every numeric field.
func TestStreamSpecValidateNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for key, set := range map[string]func(*StreamSpec){
			"rate":     func(s *StreamSpec) { s.Rate = v },
			"slo":      func(s *StreamSpec) { s.SLO = v },
			"dev":      func(s *StreamSpec) { s.Deviation = v },
			"interval": func(s *StreamSpec) { s.Interval = v },
		} {
			s := StreamSpec{Name: "cam", Rate: 30}
			set(&s)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), key+"=") {
				t.Errorf("%s=%v: Validate() = %v", key, v, err)
			}
		}
	}
}

func TestPriorityString(t *testing.T) {
	for p, want := range map[Priority]string{Low: "low", Normal: "normal", High: "high"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if got := Priority(9).String(); !strings.Contains(got, "9") {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestDefaultStreams(t *testing.T) {
	streams := DefaultStreams(100)
	if len(streams) != 100 {
		t.Fatalf("got %d streams", len(streams))
	}
	tiers := map[string]int{}
	for _, s := range streams {
		tiers[s.Tenant]++
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if tiers["gold"] != 10 || tiers["silver"] != 30 || tiers["bronze"] != 60 {
		t.Fatalf("tier split = %v, want 10/30/60", tiers)
	}
}
