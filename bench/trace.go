package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accuracy"
	"repro/internal/edge"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/obs"
)

// The traced run times the calls into each layer's public functions from
// outside the program: every span below is opened and closed by the
// benchmark's own wrappers, never by instrumentation inside the program.
// Spans live in memory and are written out only when the run ends.

// span is one timed interval of an operation. Index 0 of an operation is
// its root (the whole operation); every other span names its parent by
// index within the same operation.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanAgg accumulates every closed span of one name.
type spanAgg struct {
	calls   int
	totalNs int64
	selfNs  int64 // duration minus the part its child spans cover
}

// tracer records the spans and counters of a traced loop. Child spans may
// be opened from several goroutines (library generation evaluates pruned
// versions in parallel), so span state is guarded by mu.
type tracer struct {
	workload string
	origin   time.Time
	keep     bool   // retain every span for writing out
	kept     []span // retained spans when keep is set

	mu  sync.Mutex
	op  int
	cur []span // spans of the operation in progress

	ops    int
	opNs   int64 // Σ root durations
	spans  map[string]*spanAgg
	counts map[string]float64
}

func newTracer(workload string, keep bool) *tracer {
	return &tracer{
		workload: workload,
		origin:   time.Now(),
		keep:     keep,
		spans:    map[string]*spanAgg{},
		counts:   map[string]float64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// beginOp opens the root span of operation i.
func (t *tracer) beginOp(i int) {
	t.mu.Lock()
	t.op = i
	t.cur = append(t.cur[:0], span{Op: i, Parent: -1, Name: "op", StartNs: t.now(), EndNs: -1})
	t.mu.Unlock()
}

// open starts a child span of span parent and returns its index.
func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = append(t.cur, span{Op: t.op, ID: len(t.cur), Parent: parent, Name: name, StartNs: t.now(), EndNs: -1})
	return len(t.cur) - 1
}

// close ends span id.
func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.cur[id].EndNs = end
	t.mu.Unlock()
}

// interval records an already-finished child of the root whose bounds
// were stamped elsewhere (the cluster phases, stamped by an obs sink).
func (t *tracer) interval(name string, startNs, endNs int64) {
	t.mu.Lock()
	t.cur = append(t.cur, span{Op: t.op, ID: len(t.cur), Parent: 0, Name: name, StartNs: startNs, EndNs: endNs})
	t.mu.Unlock()
}

// measure times fn as a stand-alone span, outside any operation: the
// replays a traced operation is followed by.
func (t *tracer) measure(name string, fn func() error) error {
	start := t.now()
	err := fn()
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.spans[name]
	if a == nil {
		a = &spanAgg{}
		t.spans[name] = a
	}
	a.calls++
	a.totalNs += end - start
	a.selfNs += end - start
	if t.keep {
		t.kept = append(t.kept, span{Workload: t.workload, Op: t.op, ID: -1, Parent: -1, Name: name, StartNs: start, EndNs: end})
	}
	return err
}

// add increments a named counter.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// endOp closes the root span and folds the operation's spans into the
// per-name aggregates, computing each span's self time as its duration
// minus the union of its children's intervals.
func (t *tracer) endOp() {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur[0].EndNs = end
	kids := make([][]span, len(t.cur))
	for _, s := range t.cur[1:] {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for i, s := range t.cur {
		a := t.spans[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.spans[s.Name] = a
		}
		d := s.EndNs - s.StartNs
		a.calls++
		a.totalNs += d
		a.selfNs += d - covered(kids[i])
	}
	t.ops++
	t.opNs += t.cur[0].EndNs - t.cur[0].StartNs
	if t.keep {
		for _, s := range t.cur {
			s.Workload = t.workload
			t.kept = append(t.kept, s)
		}
	}
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNs < ss[j].StartNs })
	var total int64
	lo, hi := ss[0].StartNs, ss[0].EndNs
	for _, s := range ss[1:] {
		if s.StartNs > hi {
			total += hi - lo
			lo, hi = s.StartNs, s.EndNs
		} else if s.EndNs > hi {
			hi = s.EndNs
		}
	}
	return total + hi - lo
}

func (t *tracer) agg(name string) spanAgg {
	if a := t.spans[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// writeSelfTimes prints every span name's calls, total and self time, at
// the reference speed (f is the run's speed factor).
func (t *tracer) writeSelfTimes(w io.Writer, f float64) {
	names := make([]string, 0, len(t.spans))
	for n := range t.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time, %s traced ops (%d):\n", t.workload, t.ops)
	for _, n := range names {
		a := t.spans[n]
		fmt.Fprintf(w, "  %-28s calls %8d  total %10.3f ms  self %10.3f ms\n",
			n, a.calls, float64(a.totalNs)/1e6*f, float64(a.selfNs)/1e6*f)
	}
}

// writeSpans writes the retained spans of every tracer as one JSON array.
func writeSpans(path string, ts []*tracer) error {
	var all []span
	for _, t := range ts {
		all = append(all, t.kept...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedController wraps the AdaFlow controller. Embedding the pointer
// keeps every optional interface edge.Run looks for (ReconfigAware,
// LibrarySwapper, ThresholdSetter, TracerAware) resolving to the wrapped
// controller, so the wrapped run takes exactly the bare run's path.
type timedController struct {
	*edge.AdaFlowController
	t *tracer
}

func (c timedController) React(now, incomingFPS float64) (edge.Serving, time.Duration, bool, bool) {
	id := c.t.open("manager.react", 0)
	s, stall, switched, reconfigured := c.AdaFlowController.React(now, incomingFPS)
	c.t.close(id)
	if switched {
		c.t.add("manager.switches", 1)
	}
	return s, stall, switched, reconfigured
}

func (c timedController) SwapLibrary(now float64, lib *library.Library) bool {
	id := c.t.open("manager.swap", 0)
	ok := c.AdaFlowController.SwapLibrary(now, lib)
	c.t.close(id)
	if ok {
		c.t.add("manager.swap_commits", 1)
	}
	return ok
}

func (c timedController) ReconfigFailed(now float64) (time.Duration, bool) {
	id := c.t.open("manager.reconfig_fail", 0)
	retry, degraded := c.AdaFlowController.ReconfigFailed(now)
	c.t.close(id)
	return retry, degraded
}

// timedEvaluator times every accuracy evaluation library generation makes.
type timedEvaluator struct {
	inner  accuracy.Evaluator
	t      *tracer
	parent int
}

func (e timedEvaluator) Accuracy(m *model.Model) (float64, error) {
	id := e.t.open("accuracy.eval", e.parent)
	acc, err := e.inner.Accuracy(m)
	e.t.close(id)
	return acc, err
}

// eventSink counts the events the simulation kernel dispatched, from the
// "dispatched" attribute of its sim/run events.
type eventSink struct{ dispatched atomic.Int64 }

func (s *eventSink) Emit(ev obs.Event) {
	if ev.Cat != obs.SimCat || ev.Name != "run" {
		return
	}
	if a, ok := ev.Attr("dispatched"); ok {
		s.dispatched.Add(int64(a.Float()))
	}
}

// phaseSink stamps the wall clock on the cluster scheduler's events. An
// epoch's placement runs from its first place/migrate/shed event to its
// epoch event; dispatch runs from there to the next epoch's first event
// (or the end of Run). Epochs that place nothing new emit only the epoch
// event, so their placement reads as zero and its time counts as dispatch.
type phaseSink struct {
	t      *tracer
	first  int64 // stamp of the current epoch's first event, -1 before it
	epochs []int64
	starts []int64
}

func newPhaseSink(t *tracer) *phaseSink { return &phaseSink{t: t, first: -1} }

func (s *phaseSink) Emit(ev obs.Event) {
	if ev.Cat != obs.ClusterCat {
		return
	}
	now := s.t.now()
	if s.first < 0 {
		s.first = now
	}
	if ev.Name == "epoch" {
		s.starts = append(s.starts, s.first)
		s.epochs = append(s.epochs, now)
		s.first = -1
	}
}

// record turns the stamps into place and dispatch spans; end is the
// stamp taken when Run returned.
func (s *phaseSink) record(end int64) {
	for e, at := range s.epochs {
		s.t.interval("cluster.place", s.starts[e], at)
		next := end
		if e+1 < len(s.starts) {
			next = s.starts[e+1]
		}
		s.t.interval("cluster.dispatch", at, next)
	}
	s.t.add("cluster.epochs", float64(len(s.epochs)))
}
