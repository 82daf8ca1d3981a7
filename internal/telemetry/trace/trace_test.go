package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a race-free clock that advances by step on every
// reading, starting at base.
func fakeClock(base time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := base
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		out := t
		t = t.Add(step)
		return out
	}
}

func TestNewIDIsValid(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if !ValidID(id) {
			t.Fatalf("NewID() = %q, not a valid trace ID", id)
		}
		if seen[id] {
			t.Fatalf("NewID() repeated %q", id)
		}
		seen[id] = true
	}
}

func TestValidIDRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"short",
		strings.Repeat("a", 31),
		strings.Repeat("a", 33),
		strings.Repeat("A", 32), // uppercase hex is rejected
		strings.Repeat("g", 32), // not hex
		strings.Repeat("a", 16) + " " + strings.Repeat("a", 15),
	}
	for _, id := range bad {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
	if !ValidID("0123456789abcdef0123456789abcdef") {
		t.Error("ValidID rejected a well-formed ID")
	}
}

// TestNilSpanSafety: every method of a nil *Span must no-op, and Start
// on an untraced context must return the context unchanged with a nil
// span — the branch-free contract instrumented code relies on.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.SetAttr(Str("k", "v"))
	s.End()
	if s.TraceID() != "" {
		t.Error("nil span TraceID() != \"\"")
	}
	if s.Finished() != nil {
		t.Error("nil span Finished() != nil")
	}

	ctx := context.Background()
	ctx2, sp := Start(ctx, "op")
	if sp != nil {
		t.Error("Start on untraced context returned a non-nil span")
	}
	if ctx2 != ctx {
		t.Error("Start on untraced context returned a new context")
	}
	if Active(ctx) {
		t.Error("Active on untraced context")
	}
	if ID(ctx) != "" {
		t.Error("ID on untraced context != \"\"")
	}
	// Record on an untraced context must be a silent no-op too.
	Record(ctx, "x", time.Now(), time.Now())
}

// TestSpanTree drives a full trace with a fake clock and checks the
// recorded structure: parentage, durations, attributes, root-last
// ordering.
func TestSpanTree(t *testing.T) {
	col := NewCollector(4)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	col.SetClock(fakeClock(base, time.Second))

	id := "0123456789abcdef0123456789abcdef"
	root := col.StartTrace(id, "http /api/data", Str("service", "test"))
	ctx := NewContext(context.Background(), root)

	if !Active(ctx) || ID(ctx) != id {
		t.Fatalf("context not carrying trace %s", id)
	}

	cctx, child := Start(ctx, "query.read", Str("dataset", "tn"))
	if child == nil {
		t.Fatal("Start returned nil span under an active trace")
	}
	child.SetAttr(Int("level", 3))
	_, grand := Start(cctx, "idx.read")
	grand.End()
	child.End()
	Record(ctx, "idx.fetch", base, base.Add(5*time.Second), Str("dataset", "tn"))
	RecordDuration(ctx, "idx.decode", base.Add(8*time.Second), 2*time.Second)
	root.End()

	data := root.Finished()
	if data == nil {
		t.Fatal("Finished() == nil after root End")
	}
	if data.TraceID != id {
		t.Fatalf("TraceID = %q, want %q", data.TraceID, id)
	}
	if len(data.Spans) != 5 {
		t.Fatalf("got %d spans, want 5: %+v", len(data.Spans), data.Spans)
	}
	// The root span completes last by construction.
	rootSD := data.Spans[len(data.Spans)-1]
	if rootSD.Name != "http /api/data" || rootSD.Parent != "" {
		t.Fatalf("last span is not the root: %+v", rootSD)
	}
	q := data.Span("query.read")
	if q == nil || q.Parent != rootSD.ID {
		t.Fatalf("query.read missing or mis-parented: %+v", q)
	}
	if q.Attrs["dataset"] != "tn" || q.Attrs["level"] != "3" {
		t.Fatalf("query.read attrs wrong: %+v", q.Attrs)
	}
	if q.Duration <= 0 {
		t.Fatalf("query.read duration = %v, want > 0", q.Duration)
	}
	g := data.Span("idx.read")
	if g == nil || g.Parent != q.ID {
		t.Fatalf("idx.read missing or not a child of query.read: %+v", g)
	}
	f := data.Span("idx.fetch")
	if f == nil || f.Duration != 5*time.Second || f.Parent != rootSD.ID {
		t.Fatalf("idx.fetch recorded wrong: %+v", f)
	}
	d := data.Span("idx.decode")
	if d == nil || d.Duration != 2*time.Second {
		t.Fatalf("idx.decode RecordDuration wrong: %+v", d)
	}
	if !data.HasAttr("dataset", "tn") {
		t.Error("HasAttr(dataset, tn) = false")
	}
	if data.HasAttr("dataset", "other") {
		t.Error("HasAttr matched a value never set")
	}
	// Double End must not re-publish or change the snapshot.
	root.End()
	if got := col.added; got != 1 {
		t.Fatalf("Total = %d after double End, want 1", got)
	}
}

// TestMaxSpansCap: a runaway request stops retaining spans at MaxSpans
// and counts the overflow instead of growing without bound.
func TestMaxSpansCap(t *testing.T) {
	col := NewCollector(2)
	root := col.StartTrace("", "big")
	ctx := NewContext(context.Background(), root)
	const extra = 40
	for i := 0; i < MaxSpans+extra; i++ {
		Record(ctx, "blk", time.Now(), time.Now())
	}
	root.End()
	data := root.Finished()
	// The root span itself also competes for a slot after the cap is hit.
	if len(data.Spans) != MaxSpans {
		t.Fatalf("retained %d spans, want %d", len(data.Spans), MaxSpans)
	}
	if data.DroppedSpans != extra+1 {
		t.Fatalf("DroppedSpans = %d, want %d", data.DroppedSpans, extra+1)
	}
}

// TestLateSpanDropped: spans recorded after the root ends must not
// mutate the published snapshot.
func TestLateSpanDropped(t *testing.T) {
	col := NewCollector(2)
	root := col.StartTrace("", "req")
	ctx := NewContext(context.Background(), root)
	root.End()
	before := len(root.Finished().Spans)
	Record(ctx, "late", time.Now(), time.Now())
	if got := len(root.Finished().Spans); got != before {
		t.Fatalf("late span mutated the finished trace: %d -> %d spans", before, got)
	}
}

// Span finds the first recorded span with the given name, or nil.
func (t *TraceData) Span(name string) *SpanData {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}
