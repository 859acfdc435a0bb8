package adaflow

// Observability facade: re-exports of internal/obs plus the RunOption
// constructors, so callers can trace a run without importing internal
// packages:
//
//	sink, _ := adaflow.NewJSONLFileSink("trace.jsonl")
//	defer sink.Close()
//	tr := adaflow.NewTrace(sink, adaflow.TraceSample(25))
//	res, _ := adaflow.RunEdge(scn, ctl, cfg, adaflow.WithTracer(tr))
//
// Tracing is passive: results are bit-identical with or without a tracer,
// and a nil *Trace is valid and free (see internal/obs).

import (
	"io"

	"repro/internal/edge"
	"repro/internal/obs"
)

type (
	// Trace is a handle that simulation components emit events through.
	// The nil *Trace is inert; build one with NewTrace.
	Trace = obs.Trace
	// TraceEvent is one emitted event (sim time, category, name, attrs).
	TraceEvent = obs.Event
	// TraceAttr is a typed event attribute.
	TraceAttr = obs.Attr
	// TraceSink consumes emitted events (JSONL writer, ring, snapshot…).
	TraceSink = obs.Tracer
	// TraceOption configures NewTrace (e.g. TraceSample).
	TraceOption = obs.Option
	// TraceSnapshot aggregates events into Prometheus-style text metrics.
	TraceSnapshot = obs.Snapshot
	// TraceRing is a fixed-capacity in-memory sink keeping the newest events.
	TraceRing = obs.Ring

	// RunOption customizes RunEdge / RunEdgeRepeated(-All).
	RunOption = edge.RunOption
)

// NewTrace builds a trace emitting to sink. A nil sink yields a nil
// (inert) trace.
func NewTrace(sink TraceSink, opts ...TraceOption) *Trace { return obs.New(sink, opts...) }

// TraceSample keeps every nth hot-path event (decision-grade events are
// never sampled).
func TraceSample(n int) TraceOption { return obs.Sample(n) }

// NewJSONLSink streams events to w as JSON Lines. Call Flush (or Close)
// when done.
func NewJSONLSink(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewJSONLFileSink creates path and streams events to it; Close flushes
// and closes the file.
func NewJSONLFileSink(path string) (*obs.JSONL, error) { return obs.NewJSONLFile(path) }

// NewTraceRing keeps the most recent n events in memory.
func NewTraceRing(n int) *TraceRing { return obs.NewRing(n) }

// NewTraceSnapshot aggregates events into counters/gauges; WriteTo renders
// Prometheus text exposition format.
func NewTraceSnapshot() *TraceSnapshot { return obs.NewSnapshot() }

// MultiSink fans events out to several sinks (nils skipped).
func MultiSink(sinks ...TraceSink) TraceSink { return obs.Multi(sinks...) }

// WithTracer attaches a trace to a run: the event engine, serving loop,
// fault injector, and Runtime Manager all emit through it.
func WithTracer(tr *Trace) RunOption { return edge.WithTracer(tr) }
