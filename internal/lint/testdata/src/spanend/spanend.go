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

// straightLine ends the span in the same block with no early return:
// nothing to report.
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

// handedOff transfers the obligation to the callee: nothing to report.
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

// closureReturn has a return between Start and End, but it belongs to
// an unrelated function literal: the span is ended on the only path.
// Nothing to report.
func closureReturn(ctx context.Context) int {
	_, span := trace.Start(ctx, "closure")
	one := func() int { return 1 }
	n := one()
	span.End()
	return n
}
