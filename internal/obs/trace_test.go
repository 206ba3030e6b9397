package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "orphan")
	if sp != nil {
		t.Fatal("StartSpan without a tracer returned a live span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without a tracer should return ctx unchanged")
	}
	// All methods must be nil-safe.
	sp.Arg("k", "v")
	sp.End()
	if TracerFrom(ctx) != nil {
		t.Fatal("TracerFrom on a bare context should be nil")
	}
}

func TestSpanTreeNestingAndOrdering(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	// Build a known tree: root -> (a -> a1, b) and an independent root2.
	ctx1, root := StartSpan(ctx, "root")
	ctxA, a := StartSpan(ctx1, "a")
	_, a1 := StartSpan(ctxA, "a1")
	a1.End()
	a.End()
	_, b := StartSpan(ctx1, "b")
	b.Arg("model", "m-1")
	b.End()
	root.End()
	_, root2 := StartSpan(ctx, "root2")
	root2.End()

	recs := tr.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	r, a_, a1_, b_, r2 := byName["root"], byName["a"], byName["a1"], byName["b"], byName["root2"]

	// Parent links.
	if r.Parent != 0 || r2.Parent != 0 {
		t.Fatalf("roots must have Parent 0: root=%d root2=%d", r.Parent, r2.Parent)
	}
	if a_.Parent != r.ID || b_.Parent != r.ID || a1_.Parent != a_.ID {
		t.Fatalf("parent links wrong: a.Parent=%d b.Parent=%d a1.Parent=%d (root=%d a=%d)",
			a_.Parent, b_.Parent, a1_.Parent, r.ID, a_.ID)
	}
	// Root attribution (trace tid).
	for _, rec := range []SpanRecord{r, a_, a1_, b_} {
		if rec.Root != r.ID {
			t.Fatalf("span %s has Root %d, want %d", rec.Name, rec.Root, r.ID)
		}
	}
	if r2.Root != r2.ID {
		t.Fatalf("root2.Root = %d, want its own id %d", r2.Root, r2.ID)
	}
	// Time containment: every child interval lies within its parent's.
	contains := func(outer, inner SpanRecord) bool {
		return inner.Start >= outer.Start && inner.Start+inner.Dur <= outer.Start+outer.Dur
	}
	for _, pair := range [][2]SpanRecord{{r, a_}, {r, b_}, {a_, a1_}} {
		if !contains(pair[0], pair[1]) {
			t.Fatalf("span %s [%v+%v] not contained in parent %s [%v+%v]",
				pair[1].Name, pair[1].Start, pair[1].Dur,
				pair[0].Name, pair[0].Start, pair[0].Dur)
		}
	}
	// Records are ordered by start time.
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatal("Records not ordered by start time")
		}
	}
	if b_.Args["model"] != "m-1" {
		t.Fatalf("span args lost: %v", b_.Args)
	}
}

// TestSpanTreePropertyRandom builds randomized trees (deterministic
// shapes derived from the iteration index) and asserts the structural
// invariants hold for every shape: parent containment, root attribution,
// id uniqueness.
func TestSpanTreePropertyRandom(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		tr := NewTracer()
		ctx := WithTracer(context.Background(), tr)
		seed := uint64(trial)*2654435761 + 12345
		var build func(ctx context.Context, depth int)
		build = func(ctx context.Context, depth int) {
			children := int(seed>>uint(depth*3)%3) + 1
			if depth >= 3 {
				children = 0
			}
			ctx2, sp := StartSpan(ctx, fmt.Sprintf("d%d", depth))
			for c := 0; c < children; c++ {
				build(ctx2, depth+1)
			}
			sp.End()
		}
		build(ctx, 0)
		recs := tr.Records()
		byID := map[int64]SpanRecord{}
		for _, r := range recs {
			if _, dup := byID[r.ID]; dup {
				t.Fatalf("trial %d: duplicate span id %d", trial, r.ID)
			}
			byID[r.ID] = r
		}
		for _, r := range recs {
			if r.Parent == 0 {
				if r.Root != r.ID {
					t.Fatalf("trial %d: root span %d has Root %d", trial, r.ID, r.Root)
				}
				continue
			}
			p, ok := byID[r.Parent]
			if !ok {
				t.Fatalf("trial %d: span %d has unknown parent %d", trial, r.ID, r.Parent)
			}
			if r.Root != p.Root {
				t.Fatalf("trial %d: span %d Root %d != parent Root %d", trial, r.ID, r.Root, p.Root)
			}
			if r.Start < p.Start || r.Start+r.Dur > p.Start+p.Dur {
				t.Fatalf("trial %d: span %d not contained in parent %d", trial, r.ID, r.Parent)
			}
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	sp.End()
	sp.Arg("late", "ignored")
	if n := len(tr.Records()); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
	if args := tr.Records()[0].Args; args != nil {
		t.Fatalf("Arg after End mutated the record: %v", args)
	}
}

func TestWriteTraceChromeFormat(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx1, root := StartSpan(ctx, "recover")
	_, fetch := StartSpan(ctx1, "fetch")
	fetch.Arg("blob", "params")
	fetch.End()
	root.End()
	_, open := StartSpan(ctx, "inflight") // never ended: must not appear
	_ = open

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int64             `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2 (in-flight span must be excluded)", len(out.TraceEvents))
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph %q, want complete event \"X\"", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur", ev.Name)
		}
		if ev.Pid != 1 {
			t.Fatalf("event %q pid = %d, want 1", ev.Name, ev.Pid)
		}
	}
	if out.TraceEvents[0].Tid != out.TraceEvents[1].Tid {
		t.Fatal("spans of one tree must share a tid (track)")
	}
	if out.TraceEvents[1].Args["blob"] != "params" {
		t.Fatal("span args missing from trace event")
	}
}

// TestTracerConcurrentSpans hammers span creation/end from many
// goroutines under -race.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perWorker; n++ {
				c1, root := StartSpan(ctx, "op")
				_, child := StartSpan(c1, "phase")
				child.Arg("n", "x")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	recs := tr.Records()
	if len(recs) != workers*perWorker*2 {
		t.Fatalf("got %d records, want %d", len(recs), workers*perWorker*2)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace output is not valid JSON")
	}
}

// A caller that times an operation itself, from Began, and ends the span
// with EndAfter records exactly its own reading, and the span still ends
// where End would have ended it.
func TestEndAfterRecordsTheCallersReading(t *testing.T) {
	tr := NewTracer()
	ctx, root := StartSpan(WithTracer(context.Background(), tr), "root")
	_, child := StartSpan(ctx, "child")
	d := time.Since(child.Began())
	child.EndAfter(d)
	root.End()
	recs := tr.Records()
	if len(recs) != 2 || recs[1].Name != "child" || recs[1].Dur != d {
		t.Fatalf("records = %+v, want the child with Dur %v", recs, d)
	}
	if end := recs[1].Start + recs[1].Dur; end > recs[0].Start+recs[0].Dur {
		t.Fatalf("child ends at %v, after its root at %v", end, recs[0].Start+recs[0].Dur)
	}
	var none *Span
	if none.Began().IsZero() {
		t.Fatal("a nil span's Began must read the clock")
	}
	none.EndAfter(d)
}
