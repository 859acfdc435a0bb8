package edge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// RateTrace is a recorded workload: the piecewise-constant incoming rate
// of one seeded scenario run, sampled at exactly the run's redraw
// boundaries. Replaying it (RateTrace.Scenario, or the grammar's
// "replay:file=" primitive) reproduces the recorded run bit-for-bit —
// same Result, same decision trace — because the replayed scenario keeps
// the original's name (and with it the per-run RNG stream labels) and
// presents the identical rate at every instant without consuming
// workload randomness.
type RateTrace struct {
	Name         string
	Duration     float64
	Devices      int
	PerDeviceFPS float64
	Times        []float64
	Rates        []float64
}

// Scenario builds the replay scenario for the trace. The slices are
// copied, so the trace stays reusable.
func (tr *RateTrace) Scenario() Scenario {
	return Scenario{
		Name:     tr.Name,
		Duration: tr.Duration,
		Devices:  tr.Devices, PerDeviceFPS: tr.PerDeviceFPS,
		Replay: &Replay{
			Times: append([]float64(nil), tr.Times...),
			Rates: append([]float64(nil), tr.Rates...),
		},
	}
}

// Validate checks the trace is replayable.
func (tr *RateTrace) Validate() error { return tr.Scenario().Validate() }

// jsonl wire format: one header object, then one object per sample.
// encoding/json renders float64 with the shortest representation that
// parses back exactly, so a write/read round-trip is lossless.
type traceHeader struct {
	Name     string  `json:"name"`
	Duration float64 `json:"duration"`
	Devices  int     `json:"devices"`
	FPS      float64 `json:"fps"`
	Samples  int     `json:"samples"`
}

type traceSample struct {
	T    float64 `json:"t"`
	Rate float64 `json:"rate"`
}

// ReadRateTrace parses the JSONL wire format back into a trace and
// validates it.
func ReadRateTrace(r io.Reader) (*RateTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("edge: rate trace: %w", err)
		}
		return nil, fmt.Errorf("edge: rate trace is empty")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("edge: rate trace header: %w", err)
	}
	tr := &RateTrace{
		Name: hdr.Name, Duration: hdr.Duration,
		Devices: hdr.Devices, PerDeviceFPS: hdr.FPS,
		Times: make([]float64, 0, hdr.Samples),
		Rates: make([]float64, 0, hdr.Samples),
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s traceSample
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("edge: rate trace sample %d: %w", len(tr.Times), err)
		}
		tr.Times = append(tr.Times, s.T)
		tr.Rates = append(tr.Rates, s.Rate)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("edge: rate trace: %w", err)
	}
	if hdr.Samples != 0 && hdr.Samples != len(tr.Times) {
		return nil, fmt.Errorf("edge: rate trace header promises %d samples, got %d", hdr.Samples, len(tr.Times))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadRateTraceFile reads a JSONL rate trace from a regular file. Only
// regular files are accepted so a spec like "replay:file=…" can never be
// pointed at a pipe or device node that would block the parser.
func ReadRateTraceFile(path string) (*RateTrace, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("edge: rate trace: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("edge: rate trace %q is not a regular file", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edge: rate trace: %w", err)
	}
	defer f.Close()
	tr, err := ReadRateTrace(f)
	if err != nil {
		return nil, fmt.Errorf("edge: rate trace %q: %w", path, err)
	}
	return tr, nil
}
