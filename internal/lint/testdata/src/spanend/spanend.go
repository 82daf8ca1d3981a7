// Package spanend is a lint fixture: every violation below is asserted
// by internal/lint's golden-file tests.
package spanend

import (
	"context"

	"nsdfgo/internal/telemetry/trace"
)

// leaky starts a span and forgets it entirely — must fire.
func leaky(ctx context.Context) context.Context {
	ctx, span := trace.Start(ctx, "leaky") // want: span never ended
	_ = span
	return ctx
}

// discarded throws the span away at the call site — must fire.
func discarded(ctx context.Context) {
	ctx, _ = trace.Start(ctx, "discarded") // want: span discarded
	_ = ctx
}

// branchOnly ends the span on one path but returns early on the other —
// must fire (End is not on all paths and is not deferred).
func branchOnly(ctx context.Context, fail bool) error {
	_, span := trace.Start(ctx, "branch") // want: early return skips End
	if fail {
		return context.Canceled
	}
	span.End()
	return nil
}

// deferred is the canonical correct shape: nothing to report.
func deferred(ctx context.Context) {
	_, span := trace.Start(ctx, "ok")
	defer span.End()
	span.SetAttr(trace.Str("k", "v"))
}

// straightLine ends the span explicitly with no early return — must
// fire: a later edit adding a return would leak it.
func straightLine(ctx context.Context) {
	_, span := trace.Start(ctx, "ok2")
	span.SetAttr(trace.Int("n", 1))
	span.End()
}

// collectorRoot covers the Collector.StartTrace spelling with a
// deferred closure ending the root: nothing to report.
func collectorRoot(col *trace.Collector) {
	root := col.StartTrace(trace.NewID(), "root")
	defer func() { root.End() }()
}

// handedOff leaves the span to the callee to end — must fire.
func handedOff(ctx context.Context) {
	_, span := trace.Start(ctx, "handoff")
	finish(span)
}

func finish(s *trace.Span) { s.End() }

// escapeHatch shows the suppression path for a span intentionally ended
// elsewhere (e.g. completion is signalled from another goroutine).
func escapeHatch(ctx context.Context) {
	//lint:allow spanend ended by the completion callback
	_, span := trace.Start(ctx, "async")
	_ = span
}

// oneArm ends the span in one branch only; the other falls through to
// the return with the span still open — must fire.
func oneArm(ctx context.Context, done bool) {
	_, span := trace.Start(ctx, "one-arm") // want: not ended when !done
	if done {
		span.End()
	}
}

// closureReturn ends the span explicitly after an unrelated function
// literal — must fire, like straightLine: the span is ended on the
// only path, but not by a defer on the next statement.
func closureReturn(ctx context.Context) int {
	_, span := trace.Start(ctx, "closure")
	one := func() int { return 1 }
	n := one()
	span.End()
	return n
}

// otherDefer follows the outer Start with another Start, and defers
// both Ends later — must fire for outer only.
func otherDefer(ctx context.Context) {
	ctx, outer := trace.Start(ctx, "outer") // want: End not deferred next
	_, inner := trace.Start(ctx, "inner")
	defer inner.End()
	defer outer.End()
}

// returned hands a fresh span back to the caller — must fire.
func returned(ctx context.Context) (context.Context, *trace.Span) {
	return trace.Start(ctx, "returned") // want: not assigned
}
