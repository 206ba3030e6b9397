// Package obs is a minimal stand-in for the real tracing package: the
// spancheck fixture needs a *Span type coming from a package whose
// import path ends in "obs".
package obs

import (
	"context"
	"time"
)

// Span is one in-flight operation.
type Span struct {
	name string
}

// StartSpan starts a span named name under ctx.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{name: name}
}

// Arg annotates the span and returns it for chaining.
func (s *Span) Arg(k, v string) *Span { return s }

// End completes the span.
func (s *Span) End() {}

// EndAfter completes the span with a caller-measured duration.
func (s *Span) EndAfter(time.Duration) {}
