// Command bench is the AdaFlow reproduction's benchmark of record. It runs
// one workload per process in a closed loop, prints every end-to-end metric
// by name and unit, checks every output, and in traced mode (-trace 1)
// reports per-layer metrics timed from outside the program. See README.md.
//
// From the root of the repository:
//
//	bash bench/run.sh -workload <name|all> -seed <n> [-seconds s] [-trace 0|1]
//	                  [-repeat N] [-json out.json] [-spans spans.json] [-update]
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/parallel"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the single definition of the benchmark's
// workloads and metrics (names, units, directions and bounds).
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	path string // where BENCHMARK.json was read from
}

// loadSpec reads ./BENCHMARK.json, or ../BENCHMARK.json when run from
// bench/ (as go test does).
func loadSpec() (*benchSpec, error) {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		path = filepath.Join("..", "BENCHMARK.json")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.path = path
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s lists %d workloads, the benchmark runs %d", path, len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the benchmark's is %q", path, i, w.Name, workloads[i].name)
		}
	}
	return &s, nil
}

func (s *benchSpec) testdata() string {
	return filepath.Join(filepath.Dir(s.path), "bench", "testdata")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as -json stores it: the result plus the run's
// informational values (digest, simulated outcomes, sample counts). Start
// orders the runs of two files, so -compare can check that parent and
// change runs alternated.
type runRecord struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Start    time.Time      `json:"start"`
	Result   result         `json:"result"`
	Info     map[string]any `json:"info"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
	update  bool
	repeat  int
	setups  int // set-ups per untraced run; setup_s is their median
	jsonOut string
}

func main() {
	o := options{setups: setupRepeats}
	name := flag.String("workload", "", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; seed 1 is checked against the committed digests")
	flag.Float64Var(&o.seconds, "seconds", -1, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	traceFlag := flag.Int("trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "traced mode: write every span to this JSON file")
	flag.BoolVar(&o.update, "update", false, "rewrite the seed-1 digests in bench/testdata")
	flag.IntVar(&o.repeat, "repeat", 1, "run each workload in this many fresh processes and summarise the spread")
	flag.StringVar(&o.jsonOut, "json", "", "append every run's result to this JSON file")
	compare := flag.Bool("compare", false, "compare two -json files: -compare parent.json change.json")
	flag.Parse()
	o.trace = *traceFlag == 1

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files: parent.json change.json"))
		}
		if err := compareFiles(spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	case *traceFlag != 0 && *traceFlag != 1:
		fatal(fmt.Errorf("-trace is 0 or 1, got %d", *traceFlag))
	case o.update && o.seed != 1:
		fatal(fmt.Errorf("-update rewrites the seed-1 digests; run it with -seed 1"))
	case o.repeat < 1:
		fatal(fmt.Errorf("-repeat must be at least 1, got %d", o.repeat))
	}
	if o.seconds < 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if *name == "all" || o.repeat > 1 {
		list := workloads
		if *name != "all" {
			w, err := findWorkload(*name)
			if err != nil {
				fatal(err)
			}
			list = []*workload{w}
		}
		if err := orchestrate(spec, list, o); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	// The run executes on one P: the second vCPU of a shared machine is far
	// noisier than the first (see README.md). The program's worker pools
	// keep their production size, capped at the machine's CPUs, so their code
	// paths run, but parallel speed-up is not measured.
	runtime.GOMAXPROCS(1)
	parallel.SetAll(runtime.NumCPU())
	rec, err := runOne(spec, w, o)
	if err != nil {
		fatal(err)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, []runRecord{rec}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its report; the
// caller prints the result line.
func runOne(spec *benchSpec, w *workload, o options) (runRecord, error) {
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	info := map[string]any{}
	var values map[string]float64
	var list []metricSpec
	var attempted, failed int
	var firstErr error
	correct := true
	count := func(l *loop) {
		attempted += l.ops
		failed += l.failed
		if firstErr == nil {
			firstErr = l.firstErr
		}
	}

	fmt.Printf("workload %s seed %d seconds %g trace %v, %d CPUs\n", w.name, o.seed, o.seconds, o.trace, runtime.NumCPU())
	var base *loop
	if !o.trace {
		r, st, err := setUp(w, o.seed, o.setups)
		if err != nil {
			return runRecord{}, err
		}
		base = runLoop(w, r, window, w.checkOps, nil)
		count(base)
		f := speedFactor(append(st.kernel, base.kernel...))
		list = spec.EndToEnd
		values = map[string]float64{
			"setup_s":         median(st.seconds) * f,
			"setup_alloc_mb":  median(st.allocMB),
			"ops_per_s":       float64(base.ops) / base.opSec / f,
			"op_ms_p50":       base.opPercentileMS(0.5) * f,
			"alloc_mb_per_op": float64(base.allocB) / 1e6 / float64(base.ops),
		}
		rss, err := peakRSSMB()
		if err != nil {
			return runRecord{}, err
		}
		info["peak_rss_mb"] = rss
		info["speed_factor"] = f
		info["raw_ops_per_s"] = float64(base.ops) / base.opSec
		hostInfo(info, base, f)
	} else {
		r, st, err := setUp(w, o.seed, 1)
		if err != nil {
			return runRecord{}, err
		}
		// Untraced then traced halves of the window on the same runner: the
		// traced outputs must equal the untraced ones exactly, and the
		// throughput ratio is the tracing overhead.
		base = runLoop(w, r, window/2, w.checkOps, nil)
		count(base)
		t := newTracer(w.name, o.spans != "")
		traced := runLoop(w, r, window/2, w.checkOps, t)
		count(traced)
		identical := base.digest() == traced.digest()
		if !identical {
			correct = false
			fmt.Println("traced outputs DIFFER from the untraced outputs")
		}
		info["traced_outputs_identical"] = identical
		info["trace_overhead_pct"] = 100 * (1 - (float64(traced.ops)/traced.opSec)/(float64(base.ops)/base.opSec))
		f := speedFactor(append(append(st.kernel, base.kernel...), traced.kernel...))
		info["speed_factor"] = f
		if values, err = w.layers(r, t); err != nil {
			return runRecord{}, err
		}
		list = spec.PerLayer
		atReferenceSpeed(values, list, f)
		tracers := []*tracer{t}
		// Layers this workload does not reach are measured by a short traced
		// probe of the workload that is their home, so every run reports
		// every per-layer metric with the same meaning.
		for _, v := range workloads {
			if v == w {
				continue
			}
			rv, sv, err := setUp(v, o.seed, 1)
			if err != nil {
				return runRecord{}, err
			}
			tv := newTracer(v.name, o.spans != "")
			lp := runLoop(v, rv, 0, v.probeOps, tv)
			count(lp)
			lv, err := v.layers(rv, tv)
			if err != nil {
				return runRecord{}, err
			}
			atReferenceSpeed(lv, list, speedFactor(append(sv.kernel, lp.kernel...)))
			for k, x := range lv {
				values[k] = x
			}
			tracers = append(tracers, tv)
		}
		t.writeSelfTimes(os.Stdout, f)
		if cr, ok := r.(*cnnRunner); ok {
			if err := writeCNVTable(os.Stdout, cr, t, o.seed, f); err != nil {
				return runRecord{}, err
			}
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, tracers); err != nil {
				return runRecord{}, err
			}
		}
	}

	digest := base.digest()
	info["digest"] = digest
	status, ok, err := checkDigest(spec, w.name, o.seed, digest, o.update)
	if err != nil {
		return runRecord{}, err
	}
	info["digest_status"] = status
	correct = correct && ok && failed == 0
	simInfo(info, base)
	if firstErr != nil {
		fmt.Println("first failure:", firstErr)
	}

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return runRecord{}, fmt.Errorf("metric %s of BENCHMARK.json was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return runRecord{}, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-42s %14.6g %s\n", m.Name, v, m.Unit)
		delete(values, m.Name)
	}
	if len(values) > 0 {
		return runRecord{}, fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", sortedKeys(values))
	}
	b, err := json.Marshal(info)
	if err != nil {
		return runRecord{}, err
	}
	fmt.Println("info", string(b))
	return runRecord{Workload: w.name, Seed: o.seed, Trace: o.trace, Start: start, Result: res, Info: info}, nil
}

// atReferenceSpeed converts the per-layer host times and rates among
// values to the reference speed, given the speed factor f of the loop that
// measured them; counts and ratios need no conversion.
func atReferenceSpeed(values map[string]float64, list []metricSpec, f float64) {
	for _, m := range list {
		if _, ok := values[m.Name]; !ok {
			continue
		}
		switch m.Unit {
		case "ms", "us", "ns":
			values[m.Name] *= f
		case "GMAC/s":
			values[m.Name] /= f
		}
	}
}

// hostInfo adds the host-time figures that apply only to some workloads,
// at the reference speed (f is the run's speed factor).
func hostInfo(info map[string]any, l *loop, f float64) {
	info["ops"] = l.ops
	info["ops_per_variant_min"] = l.minVariantOps()
	info["op_ms_p90"] = l.opPercentileMS(0.9) * f
	// p99 needs ten samples beyond it in every variant.
	if l.minVariantOps() >= 1000 {
		info["op_ms_p99"] = l.opPercentileMS(0.99) * f
	}
	if l.all.simSec > 0 {
		info["sim_s_per_s"] = l.all.simSec / l.opSec / f
		info["frames_per_s"] = l.all.arrived / l.opSec / f
	}
	if l.all.images > 0 {
		info["images_per_s"] = float64(l.all.images) / l.opSec / f
	}
}

// simInfo adds the simulated outcomes of the check operations. They are
// deterministic per seed and repeat exactly.
func simInfo(info map[string]any, l *loop) {
	e := l.exact
	if e.arrived == 0 {
		return
	}
	info["frame_loss_pct"] = 100 * e.dropped / e.arrived
	if e.energyJ > 0 {
		info["qoe_pct"] = e.qoe / float64(len(l.canon))
		info["inf_per_j"] = e.processed / e.energyJ
	}
}

// checkDigest compares a seed-1 digest with the committed one, or
// rewrites the committed one under -update. Other seeds check invariants
// only.
func checkDigest(spec *benchSpec, workload string, seed int64, got string, update bool) (string, bool, error) {
	if seed != 1 {
		return "not compared (seed 1 only)", true, nil
	}
	path := filepath.Join(spec.testdata(), workload+".seed1.digest")
	if update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			return "", false, err
		}
		return "updated " + path, true, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false, err
	}
	if want := strings.TrimSpace(string(b)); want != got {
		fmt.Printf("digest MISMATCH: got %s, %s holds %s\n", got, path, want)
		return "mismatch", false, nil
	}
	return "matches", true, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSON appends recs to the runs of the -json file at path, creating
// it if needed, so a shell loop that alternates parent and change runs
// collects each side in one file.
func writeJSON(path string, recs []runRecord) error {
	old, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"runs": append(old, recs...)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
