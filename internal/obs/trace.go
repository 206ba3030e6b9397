package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects completed spans and renders them as a Chrome
// trace-event file (chrome://tracing, Perfetto). It is safe for
// concurrent use; a nil *Tracer is valid and records nothing, so
// instrumented code never branches on "is tracing on".
type Tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer creates a tracer whose span timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now()}
}

// SpanRecord is one completed span.
type SpanRecord struct {
	ID     int64
	Parent int64 // 0 for root spans
	Root   int64 // id of the root span of this tree (its own id for roots)
	Name   string
	Start  time.Duration // offset from the tracer's base time
	Dur    time.Duration
	Args   map[string]string
}

// Span is one in-flight operation. All methods are nil-safe, so callers
// write straight-line instrumentation regardless of whether tracing is
// active.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	root   int64
	name   string
	start  time.Duration

	mu    sync.Mutex
	args  map[string]string
	ended bool
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context carrying tr; spans started under it are
// recorded there.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, tr)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// StartSpan starts a span named name. If ctx carries a span, the new span
// is its child; otherwise, if ctx carries a tracer, it is a new root.
// With neither, it returns (ctx, nil) — and every method on a nil span is
// a no-op. The returned context carries the new span for nesting.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey).(*Span)
	var tr *Tracer
	if parent != nil {
		tr = parent.tr
	} else {
		tr = TracerFrom(ctx)
	}
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{
		tr:    tr,
		id:    tr.next.Add(1),
		name:  name,
		start: time.Since(tr.base),
	}
	if parent != nil {
		sp.parent = parent.id
		sp.root = parent.root
	} else {
		sp.root = sp.id
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// Arg attaches a key/value annotation to the span and returns it for
// chaining. No-op after End.
func (s *Span) Arg(k, v string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.ended {
		if s.args == nil {
			s.args = make(map[string]string)
		}
		s.args[k] = v
	}
	s.mu.Unlock()
	return s
}

// End completes the span and records it with the tracer. Idempotent; only
// the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAfter(time.Since(s.tr.base) - s.start)
}

// Began returns the instant the span started — on a nil span, now — so a
// caller that accounts the operation's duration itself starts its clock
// where the span did.
func (s *Span) Began() time.Time {
	if s == nil {
		return time.Now()
	}
	return s.tr.base.Add(s.start)
}

// EndAfter is End for a caller that timed the operation itself, from
// Began: the span records d, so the trace and the caller's own accounting
// report one reading instead of two that almost agree.
func (s *Span) EndAfter(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	s.mu.Unlock()
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Root:   s.root,
		Name:   s.name,
		Start:  s.start,
		Dur:    d,
		Args:   args,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, rec)
	s.tr.mu.Unlock()
}

// Records returns a copy of the completed spans, ordered by start time
// (ties broken by id, which increases in start order).
func (t *Tracer) Records() []SpanRecord {
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event). Timestamps
// and durations are microseconds; tid groups each span tree onto its own
// track.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int64             `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteTrace writes all completed spans as Chrome trace-event JSON. Spans
// still in flight at call time are not included.
func (t *Tracer) WriteTrace(w io.Writer) error {
	recs := t.Records()
	events := make([]traceEvent, len(recs))
	for i, r := range recs {
		events[i] = traceEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(r.Start.Nanoseconds()) / 1e3,
			Dur:  float64(r.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  r.Root,
			Args: r.Args,
		}
	}
	b, err := json.MarshalIndent(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events}, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
