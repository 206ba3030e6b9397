// Package spancheck is an mmlint fixture for the span half of
// closecheck: obs spans started but never ended drop out of the trace.
package spancheck

import (
	"context"
	"errors"
	"time"

	"repro/cmd/mmlint/testdata/src/spancheck/obs"
)

// BadLeak starts a span and returns without ever calling End: flagged.
func BadLeak(ctx context.Context) context.Context {
	ctx, sp := obs.StartSpan(ctx, "fetch")
	sp.Arg("model", "m1")
	return ctx
}

// BadLeakInClosure starts a span inside a closure and never ends it:
// flagged — closure bodies are part of the enclosing function.
func BadLeakInClosure(ctx context.Context) {
	fn := func() {
		_, sp := obs.StartSpan(ctx, "decode")
		sp.Arg("k", "v")
	}
	fn()
}

// CleanDefer ends the span when the function returns: not flagged.
func CleanDefer(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "root")
	defer sp.End()
}

// CleanPerPath ends the span explicitly on each return path — the phase-
// span idiom, where defer would wrongly extend the span to function end:
// not flagged.
func CleanPerPath(ctx context.Context, fail bool) error {
	_, sp := obs.StartSpan(ctx, "phase")
	if fail {
		sp.End()
		return errors.New("phase failed")
	}
	sp.End()
	return nil
}

// CleanEndAfter ends the span with a duration it measured itself: not
// flagged.
func CleanEndAfter(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "timed")
	start := time.Now()
	sp.EndAfter(time.Since(start))
}

// CleanEscapeReturn hands the span to its caller, which then owns ending
// it: not flagged.
func CleanEscapeReturn(ctx context.Context) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, "handed-off")
	return ctx, sp
}

// CleanEscapeArg passes the span to a helper that ends it: not flagged.
func CleanEscapeArg(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "delegated")
	finish(sp)
}

func finish(sp *obs.Span) { sp.End() }

// SuppressedLeak keeps a span open past return on purpose; the directive
// must silence the finding.
func SuppressedLeak(ctx context.Context) {
	//mmlint:ignore closecheck fixture: span intentionally left open
	_, sp := obs.StartSpan(ctx, "intentional")
	sp.Arg("k", "v")
}
