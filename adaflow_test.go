package adaflow

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/library"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestFacadeEndToEnd drives the whole public API with a tiny model: build,
// library generation with a trained evaluator, runtime management, edge
// simulation, and model serialization.
func TestFacadeEndToEnd(t *testing.T) {
	ds := TinyDataset(1)
	m, err := NewTinyCNV("tiny", ds.Name, 2, ds.Classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Epochs = 1
	opts.Samples = 40
	lib, err := GenerateLibrary(m, LibraryConfig{
		Rates:     []float64{0, 0.5},
		Evaluator: NewTrainedEvaluator(ds, opts),
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewRuntimeManager(lib, DefaultManagerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEdge(edge.Scenario1(), NewAdaFlowController(mgr), SimConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The tiny accelerator's capacity vastly exceeds the scenario's 600
	// FPS, so nothing should be lost.
	if res.FrameLossPct > 1 {
		t.Fatalf("tiny accelerator lost %.2f%% frames", res.FrameLossPct)
	}

	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name {
		t.Fatal("round trip lost identity")
	}
}

// tinyFacadeLibrary builds the fast test-scale library the facade tests
// share.
func tinyFacadeLibrary(t *testing.T) *Library {
	t.Helper()
	ds := TinyDataset(1)
	m, err := NewTinyCNV("tiny", ds.Name, 2, ds.Classes, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Epochs = 1
	opts.Samples = 40
	lib, err := GenerateLibrary(m, LibraryConfig{
		Rates:     []float64{0, 0.5},
		Evaluator: NewTrainedEvaluator(ds, opts),
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestRunEdgeTracingIsPassive checks the observability facade end to end:
// a traced run produces the exact same RunStats as an untraced one, while
// the trace captures decision events and the snapshot renders metrics.
func TestRunEdgeTracingIsPassive(t *testing.T) {
	lib := tinyFacadeLibrary(t)
	run := func(opts ...RunOption) *Result {
		mgr, err := NewRuntimeManager(lib, DefaultManagerConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunEdge(edge.Scenario2(), NewAdaFlowController(mgr), SimConfig{Seed: 7}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run()

	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	ring := NewTraceRing(64)
	snap := NewTraceSnapshot()
	tr := NewTrace(MultiSink(jsonl, ring, snap), TraceSample(10))
	traced := run(WithTracer(tr))
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.RunStats, traced.RunStats) {
		t.Fatalf("tracing changed results:\nplain  %+v\ntraced %+v", plain.RunStats, traced.RunStats)
	}
	if ring.Total() == 0 {
		t.Fatal("traced run emitted no events")
	}
	if snap.Count(obs.ManagerCat, "decide") == 0 {
		t.Fatal("no manager/decide events reached the snapshot")
	}
	var text bytes.Buffer
	if _, err := snap.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "adaflow_events_total") {
		t.Fatalf("snapshot rendering missing counters:\n%s", text.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("malformed JSONL line: %q", line)
		}
	}
}

// TestRunEdgeRepeatedAll checks the mean-only helper is exactly the
// documented reduction of the per-run variant.
func TestRunEdgeRepeatedAll(t *testing.T) {
	lib := tinyFacadeLibrary(t)
	mk := func() (Controller, error) {
		mgr, err := NewRuntimeManager(lib, DefaultManagerConfig())
		if err != nil {
			return nil, err
		}
		return NewAdaFlowController(mgr), nil
	}
	mean, runs, err := RunEdgeRepeatedAll(edge.Scenario1(), mk, 3, 11, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("per-run stats = %d, want 3", len(runs))
	}
	meanOnly, err := RunEdgeRepeated(edge.Scenario1(), mk, 3, 11, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mean, meanOnly) {
		t.Fatalf("RunEdgeRepeated disagrees with RunEdgeRepeatedAll mean:\n%+v\n%+v", meanOnly, mean)
	}
}

// TestSetParallelism checks the unified knob drives every cap and that
// reset restores each cap's own default.
func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := parallel.RegisterKnob("tensor.kernels", runtime.NumCPU()).Get(); got != 3 {
		t.Fatalf("tensor cap = %d, want 3", got)
	}
	if got := edge.MaxParallelRuns(); got != 3 {
		t.Fatalf("edge cap = %d, want 3", got)
	}
	if got := experiments.MaxWorkers(); got != 3 {
		t.Fatalf("experiments cap = %d, want 3", got)
	}
	if got := library.DefaultWorkers(); got != 3 {
		t.Fatalf("library default = %d, want 3", got)
	}
	if got := parallel.RegisterKnob("cluster.pools", runtime.NumCPU()).Get(); got != 3 {
		t.Fatalf("cluster cap = %d, want 3", got)
	}
	SetParallelism(0)
	if got := parallel.RegisterKnob("tensor.kernels", runtime.NumCPU()).Get(); got != runtime.NumCPU() {
		t.Fatalf("tensor reset = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := library.DefaultWorkers(); got != 1 {
		t.Fatalf("library reset = %d, want serial 1", got)
	}
}

func TestFacadePaperHelpers(t *testing.T) {
	if n := len(PaperPruningRates()); n != 18 {
		t.Fatalf("paper rates = %d", n)
	}
	if scn, err := ParseScenario("paper12"); err != nil || scn.Duration != 25 {
		t.Fatalf("paper12 scenario: %v, %v", scn.Duration, err)
	}
	if _, err := NewCalibratedEvaluator("CNVW2A2", "cifar10"); err != nil {
		t.Fatal(err)
	}
	m, err := NewCNVW1A2("gtsrb", 43, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BaseChannels) != 6 {
		t.Fatalf("base channels %v", m.BaseChannels)
	}
}
