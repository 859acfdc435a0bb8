// Package adaflow is a Go reproduction of "AdaFlow: A Framework for
// Adaptive Dataflow CNN Acceleration on FPGAs" (Korol et al., DATE 2022).
//
// AdaFlow adds runtime adaptability to FINN-style streaming dataflow CNN
// accelerators in two steps (paper Fig. 4: user inputs → Library Generator
// → Runtime Managers). The user inputs are the initial CNN models, their
// datasets, the FINN configuration and an accuracy threshold;
// GenerateLibrary is the Library Generator and NewRuntimeManager builds one
// Runtime Manager per generated library:
//
//   - Design time: a Library Generator applies dataflow-aware filter
//     pruning (ℓ1 ranking under PE/SIMD divisibility constraints) at rates
//     0–85 %, retrains/evaluates each version, and synthesizes one
//     Fixed-Pruning accelerator per version plus a single Flexible-Pruning
//     accelerator per initial model whose channel counts are runtime
//     controllable.
//   - Run time: a Runtime Manager watches the incoming inference workload
//     and, under a user accuracy threshold, switches model versions —
//     instantly on the Flexible accelerator, or by FPGA reconfiguration
//     onto the more power-efficient Fixed ones when switches are rare.
//
// Because no FPGA toolchain or CIFAR-10/GTSRB data exists in this
// environment, the hardware layer is a calibrated simulation (cycle,
// resource, power, and reconfiguration models in internal/finn and
// internal/synth) and datasets are synthetic (internal/dataset); DESIGN.md
// documents every substitution. The quantized CNN engine, pruning,
// library generation, runtime management, and the edge-server evaluation
// are fully implemented and reproduce the paper's tables and figures in
// shape (see EXPERIMENTS.md).
//
// Facade overview:
//
//	m, _ := adaflow.NewCNVW2A2("cifar10", 10, 1)
//	ev, _ := adaflow.NewCalibratedEvaluator("CNVW2A2", "cifar10")
//	lib, _ := adaflow.GenerateLibrary(m, adaflow.LibraryConfig{Evaluator: ev})
//	mgr, _ := adaflow.NewRuntimeManager(lib, adaflow.DefaultManagerConfig())
//	scn, _ := adaflow.ParseScenario("paper2")
//	res, _ := adaflow.RunEdge(scn, adaflow.NewAdaFlowController(mgr), adaflow.SimConfig{Seed: 1})
//
// The cmd/ tools and examples/ directory exercise this API end to end;
// cmd/adaflow-repro regenerates every paper table and figure.
package adaflow

import (
	"io"

	"repro/internal/accuracy"
	"repro/internal/compile"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/modelio"
	"repro/internal/parallel"
	"repro/internal/train"
)

// SetParallelism drives every parallelism cap in the repo at once: the
// tensor kernel pool, RunEdgeRepeated's concurrent simulations, the
// experiment harness fan-out, the cluster scheduler's per-pool fan-out,
// and GenerateLibrary's default rate-sweep width. n <= 0 resets each cap
// to its own default (NumCPU for the compute pools, serial for library
// generation). An explicit LibraryConfig.Workers always wins over the
// default this sets.
// Results are bit-identical for every value — parallel fan-outs write
// indexed slots in deterministic order.
func SetParallelism(n int) { parallel.SetAll(n) }

// Core model types.
type (
	// Model is a CNN plus AdaFlow metadata (channels, pruning rate).
	Model = model.Model
	// ModelConfig parameterizes custom topologies via BuildModel.
	ModelConfig = model.Config

	// Library is the design-time artifact: pruned versions + accelerators.
	Library = library.Library
	// LibraryEntry is one pruned version's profile.
	LibraryEntry = library.Entry
	// LibraryConfig parameterizes GenerateLibrary.
	LibraryConfig = library.Config

	// RuntimeManager selects model versions and accelerator families.
	RuntimeManager = manager.Manager
	// ManagerConfig holds the accuracy threshold and the Fixed/Flexible
	// selection criteria.
	ManagerConfig = manager.Config

	// Evaluator measures a model version's accuracy.
	Evaluator = accuracy.Evaluator

	// Dataset is a deterministic synthetic image dataset.
	Dataset = dataset.Dataset

	// TrainOptions tune retraining.
	TrainOptions = train.Options

	// Scenario, Controller, SimConfig, Result drive edge simulations.
	Scenario   = edge.Scenario
	Controller = edge.Controller
	SimConfig  = edge.SimConfig
	Result     = edge.Result
	// AdmissionConfig, BatchConfig and FaultConfig are SimConfig's
	// embedded knob groups: queue depth and deadline, micro-batching,
	// and fault injection.
	AdmissionConfig = edge.AdmissionConfig
	BatchConfig     = edge.BatchConfig
	FaultConfig     = edge.FaultConfig
	// RunStats summarizes a run (frame loss, QoE, power efficiency).
	RunStats = metrics.RunStats
)

// NewCNVW2A2 builds the paper-scale CNV with 2-bit weights/activations.
func NewCNVW2A2(ds string, classes int, seed int64) (*Model, error) {
	return model.CNVW2A2(ds, classes, seed)
}

// NewCNVW1A2 builds the paper-scale CNV with binary weights.
func NewCNVW1A2(ds string, classes int, seed int64) (*Model, error) {
	return model.CNVW1A2(ds, classes, seed)
}

// NewTinyCNV builds a test-scale CNV that trains in milliseconds.
func NewTinyCNV(name, ds string, wbits, classes int, seed int64) (*Model, error) {
	return model.TinyCNV(name, ds, wbits, classes, seed)
}

// BuildModel builds a custom CNV-style topology.
func BuildModel(cfg ModelConfig) (*Model, error) { return model.Build(cfg) }

// SyntheticCIFAR10 returns the CIFAR-10 stand-in dataset.
func SyntheticCIFAR10(seed int64) *Dataset { return dataset.SyntheticCIFAR10(seed) }

// SyntheticGTSRB returns the GTSRB stand-in dataset.
func SyntheticGTSRB(seed int64) *Dataset { return dataset.SyntheticGTSRB(seed) }

// TinyDataset returns the fast 4-class test dataset.
func TinyDataset(seed int64) *Dataset { return dataset.TinyDataset(seed) }

// NewCalibratedEvaluator returns the paper-calibrated accuracy curves for
// a paper model/dataset pair ("CNVW2A2"/"cifar10", …).
func NewCalibratedEvaluator(modelName, ds string) (Evaluator, error) {
	return accuracy.NewCalibrated(modelName, ds)
}

// NewTrainedEvaluator retrains models on a synthetic dataset and measures
// real test accuracy (use with tiny models).
func NewTrainedEvaluator(ds *Dataset, opts TrainOptions) Evaluator {
	return accuracy.NewTrained(ds, opts)
}

// DefaultTrainOptions mirrors the paper's retraining recipe at synthetic
// scale.
func DefaultTrainOptions() TrainOptions { return train.DefaultOptions() }

// GenerateLibrary runs the design-time Library Generator.
func GenerateLibrary(initial *Model, cfg LibraryConfig) (*Library, error) {
	return library.Generate(initial, cfg)
}

// PaperPruningRates returns the paper's sweep (0–85 % in 5 % steps).
func PaperPruningRates() []float64 { return library.PaperRates() }

// NewRuntimeManager builds the runtime model/accelerator selector.
func NewRuntimeManager(lib *Library, cfg ManagerConfig) (*RuntimeManager, error) {
	return manager.New(lib, cfg)
}

// DefaultManagerConfig mirrors the paper's evaluation settings: 10 %
// accuracy threshold, Fixed only beyond 10× the reconfiguration time.
func DefaultManagerConfig() ManagerConfig { return manager.DefaultConfig() }

// SwitchPolicy selects the manager's accelerator-family rule; see
// SwitchInterval and SwitchRate.
type SwitchPolicy = manager.SwitchPolicy

const (
	// SwitchInterval is the paper's rule: Fixed only while model switches
	// are rare relative to the reconfiguration time. The default.
	SwitchInterval = manager.SwitchInterval
	// SwitchRate sizes the serving configuration to a sustained-input-rate
	// estimate (EWMA + deviation headroom) instead of the instantaneous
	// rate, going Fixed while the rate is stable.
	SwitchRate = manager.SwitchRate
)

// ParseSwitchPolicy parses "interval" or "rate" (did-you-mean hard
// errors), for wiring the policy through flags and configs.
func ParseSwitchPolicy(name string) (SwitchPolicy, error) { return manager.ParseSwitchPolicy(name) }

// ParseScenario parses a composable workload spec — `|`-separated
// primitives such as
//
//	"diurnal:period=60,amp=0.4 | burst:at=15,x=3,len=2 | tail:pareto,alpha=1.5"
//
// or one of the registered names from NamedScenarios ("paper1",
// "diurnal", …). Unknown primitives and parameters are hard errors with
// did-you-mean hints. See DESIGN.md "Workload grammar" for the full
// grammar.
func ParseScenario(spec string) (Scenario, error) { return edge.ParseScenario(spec) }

// NamedScenarios returns the registered scenario names mapped to their
// spec strings: the paper workloads ("paper1", "paper2", "paper12",
// "paper-churn") plus the extended zoo ("diurnal", "flash", "heavytail",
// "multicam").
func NamedScenarios() map[string]string { return edge.NamedScenarios() }

// NewAdaFlowController serves with the Runtime Manager.
func NewAdaFlowController(mgr *RuntimeManager) Controller { return edge.NewAdaFlow(mgr) }

// NewStaticFINNController serves the unpruned FINN baseline.
func NewStaticFINNController(lib *Library) Controller { return edge.NewStaticFINN(lib) }

// RunEdge simulates one scenario run, fluid unless cfg.EventLevel is
// set. Trailing RunOptions (WithTracer) customize cross-cutting
// behaviour; zero options reproduce the historical results exactly.
func RunEdge(scn Scenario, ctl Controller, cfg SimConfig, opts ...RunOption) (*Result, error) {
	return edge.Run(scn, ctl, cfg, opts...)
}

// RunEdgeRepeated averages repeated runs (the paper averages 100). It is
// RunEdgeRepeatedAll keeping only the mean — use that variant when the
// per-run distribution (variance, percentiles) matters.
func RunEdgeRepeated(scn Scenario, mk func() (Controller, error), runs int, seed int64, cfg SimConfig, opts ...RunOption) (RunStats, error) {
	mean, _, err := RunEdgeRepeatedAll(scn, mk, runs, seed, cfg, opts...)
	return mean, err
}

// RunEdgeRepeatedAll runs the scenario `runs` times with consecutive seeds
// and returns both the mean and every per-run RunStats (index i ran with
// seed seed+i). With WithTracer, each run's events carry a run=i attribute.
func RunEdgeRepeatedAll(scn Scenario, mk func() (Controller, error), runs int, seed int64, cfg SimConfig, opts ...RunOption) (RunStats, []RunStats, error) {
	return edge.RunRepeated(scn, mk, runs, seed, cfg, opts...)
}

// SaveModel serializes a model (with its pruning/channel metadata — the
// role ONNX export plays in the paper's flow).
func SaveModel(w io.Writer, m *Model) error { return modelio.Encode(w, m) }

// LoadModel deserializes a model.
func LoadModel(r io.Reader) (*Model, error) { return modelio.Decode(r) }

// Program is a functional dataflow program: the model lowered to MVTU
// stages with FINN-style per-channel threshold ladders (batch-norm and
// activation quantization absorbed), which run copies of the loaded
// model's own layers and threshold their outputs. Flexible programs are
// sized to worst-case channels and switch models with Program.LoadModel.
type Program = compile.Program

// CompileProgram lowers a quantized model to a functional dataflow
// program; flexible selects the worst-case-synthesized runtime-switchable
// variant.
func CompileProgram(m *Model, flexible bool) (*Program, error) {
	return compile.Compile(m, flexible)
}
