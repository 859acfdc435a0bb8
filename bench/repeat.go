package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// orchestrate runs every listed workload o.repeat times, each run in a
// fresh process, interleaving the workloads so slow drift of the machine
// spreads over all of them. It then prints each metric's median and
// quartiles and flags spreads wider than the metric's bound.
func orchestrate(spec *benchSpec, list []*workload, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []runRecord
	bad := 0
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range list {
			rec, err := runChild(exe, w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s run %d: %v\n", w.name, rep, err)
				bad++
				continue
			}
			if !rec.Result.Correct {
				bad++
			}
			fmt.Printf("%-10s run %d: correct=%v attempted=%d failed=%d digest=%v\n",
				w.name, rep, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Info["digest_status"])
			recs = append(recs, rec)
		}
	}
	summarize(spec, list, recs)
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, recs); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed or were incorrect", bad)
	}
	return nil
}

// runChild runs one workload in a fresh process and parses its report.
func runChild(exe, name string, o options) (runRecord, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if o.update {
		args = append(args, "-update")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	rec := runRecord{Workload: name, Seed: o.seed, Trace: o.trace, Start: time.Now()}
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return runRecord{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "info "); ok {
			if err := json.Unmarshal([]byte(s), &rec.Info); err != nil {
				return runRecord{}, fmt.Errorf("info line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return runRecord{}, fmt.Errorf("no result line (exit %v): %q", err, last)
	}
	return rec, nil
}

// quartiles returns the quartiles of xs by the same method as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func metricValues(recs []runRecord, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if r.Workload == workload {
			if v, ok := r.Result.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// exactInfo names the informational values that must repeat exactly
// between runs of one seed.
var exactInfo = []string{"digest", "qoe_pct", "frame_loss_pct", "inf_per_j"}

func summarize(spec *benchSpec, list []*workload, recs []runRecord) {
	metrics := spec.EndToEnd
	if len(recs) > 0 && recs[0].Trace {
		metrics = spec.PerLayer
	}
	for _, w := range list {
		fmt.Printf("\n%s (%d runs)\n", w.name, len(metricValues(recs, w.name, metrics[0].Name)))
		fmt.Printf("  %-42s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range metrics {
			vs := metricValues(recs, w.name, m.Name)
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			spread := math.Abs(q3-q1) / math.Abs(med)
			flag := ""
			if m.Bound > 0 && spread > m.Bound {
				flag = "  SPREAD ABOVE BOUND"
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Printf("  %-42s %12.5g %12.5g %12.5g %7.2f%% %7s %s%s\n", m.Name, med, q1, q3, 100*spread, bound, m.Unit, flag)
		}
		for _, k := range exactInfo {
			seen := map[string]bool{}
			for _, r := range recs {
				if v, ok := r.Info[k]; ok && r.Workload == w.name {
					seen[fmt.Sprint(v)] = true
				}
			}
			switch len(seen) {
			case 0:
			case 1:
				fmt.Printf("  %-42s identical in every run: %s\n", k, sortedKeys(seen)[0])
			default:
				fmt.Printf("  %-42s DIFFERS between runs: %v\n", k, sortedKeys(seen))
			}
		}
	}
}

func readRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Runs []runRecord `json:"runs"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// compareFiles applies the benchmark's acceptance rule to every pairing
// of end-to-end metric and workload. The i-th untraced run of a workload in
// each file form pair i. A gain needs at least minPairs pairs whose first
// side alternated, the change winning at least nine tenths of them, and its
// median differing from the parent's by more than the parent's quartile
// spread. A regression is a median worse than the parent's by more than the
// metric's bound. A spread wider than the bound on either side leaves the
// metric unresolved, unless every change run reads better than every parent
// run. A gain does not count when more operations failed than at the parent.
func compareFiles(spec *benchSpec, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	regressions := 0
	for _, w := range workloads {
		pr, cr := untracedRuns(parent, w.name), untracedRuns(change, w.name)
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		alt := alternated(pr, cr)
		pf, cf := failures(pr), failures(cr)
		fmt.Printf("\n%s (%d parent and %d change runs, order alternated: %v, failed ops %d and %d)\n",
			w.name, len(pr), len(cr), alt, pf, cf)
		fmt.Printf("  %-16s %12s %12s %7s %9s %8s  %s\n", "metric", "parent", "change", "wins", "change", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			pv, cv := metricValues(pr, w.name, m.Name), metricValues(cr, w.name, m.Name)
			if len(pv) != len(pr) || len(cv) != len(cr) {
				return fmt.Errorf("%s: some runs lack %s", w.name, m.Name)
			}
			v, wins, n, rel := verdict(m, pv, cv, alt)
			if v == "gain" && cf > pf {
				v = "no gain: more failed ops"
			}
			if v == "regression" {
				regressions++
			}
			fmt.Printf("  %-16s %12.5g %12.5g %3d/%-3d %+8.2f%% %7.0f%%  %s\n",
				m.Name, median(pv), median(cv), wins, n, 100*rel, 100*m.Bound, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}

func failures(recs []runRecord) int {
	n := 0
	for _, r := range recs {
		n += r.Result.Failed
	}
	return n
}

func untracedRuns(recs []runRecord, workload string) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// alternated reports whether the parent and change runs form pairs in
// time, each pair starting after the previous one, with the side that ran
// first alternating from pair to pair.
func alternated(pr, cr []runRecord) bool {
	var prevEnd time.Time
	for i := range min(len(pr), len(cr)) {
		p, c := pr[i].Start, cr[i].Start
		if p.IsZero() || c.IsZero() || p.Equal(c) || p.Before(prevEnd) || c.Before(prevEnd) {
			return false
		}
		if i > 0 && c.Before(p) == cr[i-1].Start.Before(pr[i-1].Start) {
			return false
		}
		prevEnd = p
		if c.After(p) {
			prevEnd = c
		}
	}
	return true
}

// verdict compares parent and change samples of one metric, paired by
// index; alternated says whether the pairs' run order alternated. rel is
// the change's median relative to the parent's, signed so positive is
// better.
func verdict(m metricSpec, pv, cv []float64, alternated bool) (v string, wins, n int, rel float64) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	n = min(len(pv), len(cv))
	for i := 0; i < n; i++ {
		if sign*(cv[i]-pv[i]) > 0 {
			wins++
		}
	}
	p1, pm, p3 := quartiles(pv)
	c1, cm, c3 := quartiles(cv)
	rel = sign * (cm - pm) / math.Abs(pm)
	switch {
	case -rel > m.Bound:
		return "regression", wins, n, rel
	case rel > 0 && 10*wins >= 9*n && math.Abs(cm-pm) > math.Abs(p3-p1):
		switch {
		case n < minPairs:
			return "insufficient pairs", wins, n, rel
		case !alternated:
			return "order not alternated", wins, n, rel
		}
		return "gain", wins, n, rel
	case math.Abs(p3-p1)/math.Abs(pm) > m.Bound || math.Abs(c3-c1)/math.Abs(cm) > m.Bound:
		if everyRunBetter(sign, pv, cv) {
			return "no regression", wins, n, rel
		}
		return "unresolved", wins, n, rel
	}
	return "no change", wins, n, rel
}

// everyRunBetter reports whether every change value reads better than
// every parent value; sign is +1 when higher is better, -1 when lower is.
func everyRunBetter(sign float64, pv, cv []float64) bool {
	for _, p := range pv {
		for _, c := range cv {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}
