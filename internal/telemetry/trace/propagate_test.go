package trace

import (
	"context"
	"net/http"
	"testing"
)

func TestParentRoundTrip(t *testing.T) {
	p := Parent{Node: "store-a", SpanID: "2f", Depth: 3}
	got, ok := ParseParent(p.String())
	if !ok {
		t.Fatalf("ParseParent(%q) not ok", p.String())
	}
	if got != p {
		t.Fatalf("round trip = %+v, want %+v", got, p)
	}
	if got.Ref() != "store-a/2f" {
		t.Fatalf("Ref() = %q, want store-a/2f", got.Ref())
	}
}

func TestParseParentRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"",            // empty
		"store-a",     // no @ or /
		"store-a/2f",  // no depth
		"store-a@3",   // no span
		"/2f@1",       // empty node
		"store-a/@1",  // empty span
		"store-a/2f@", // empty depth
		"store-a/2f@-1",
		"store-a/2f@x",
	} {
		if _, ok := ParseParent(s); ok {
			t.Errorf("ParseParent(%q) ok, want rejection", s)
		}
	}
}

func TestInjectSetsPropagationHeaders(t *testing.T) {
	col := NewCollector(4)
	col.SetNode("dashboard")
	root := col.StartTrace("", "http /api/data")
	ctx := NewContext(context.Background(), root)

	h := make(http.Header)
	Inject(ctx, h)
	if got := h.Get(TraceIDHeader); got != root.TraceID() {
		t.Fatalf("trace header %q, want %q", got, root.TraceID())
	}
	parent, ok := ParseParent(h.Get(ParentHeader))
	if !ok {
		t.Fatalf("parent header %q does not parse", h.Get(ParentHeader))
	}
	if parent.Node != "dashboard" || parent.SpanID != root.ID() || parent.Depth != 0 {
		t.Fatalf("parent = %+v, want node=dashboard span=%s depth=0", parent, root.ID())
	}
	root.End()
}

func TestInjectNoActiveSpanIsNoop(t *testing.T) {
	h := make(http.Header)
	Inject(context.Background(), h)
	if len(h) != 0 {
		t.Fatalf("Inject without a span set headers: %v", h)
	}
}

func TestSetRemoteParentRaisesDepthAndAttrs(t *testing.T) {
	col := NewCollector(4)
	col.SetNode("store-b")
	root := col.StartTrace("abcdefabcdefabcdefabcdefabcdefab", "http /o/key")
	root.SetRemoteParent(Parent{Node: "dashboard", SpanID: "4", Depth: 1})
	if got := root.Depth(); got != 2 {
		t.Fatalf("depth after SetRemoteParent = %d, want 2", got)
	}

	// A second hop injected from this process must carry the raised
	// depth, so federation can order the processes.
	ctx := NewContext(context.Background(), root)
	h := make(http.Header)
	Inject(ctx, h)
	parent, ok := ParseParent(h.Get(ParentHeader))
	if !ok || parent.Depth != 2 {
		t.Fatalf("re-injected parent = %+v ok=%v, want depth 2", parent, ok)
	}

	root.End()
	data := col.Find("abcdefabcdefabcdefabcdefabcdefab")
	if data == nil {
		t.Fatal("trace not retained")
	}
	sp := &data.Spans[0]
	if sp.Attrs["remote_parent"] != "dashboard/4" {
		t.Fatalf("remote_parent attr %q, want dashboard/4", sp.Attrs["remote_parent"])
	}
	if sp.Attrs["node"] != "store-b" {
		t.Fatalf("node attr %q, want store-b", sp.Attrs["node"])
	}
}

func TestSpanAccessorsNilSafe(t *testing.T) {
	var s *Span
	if s.ID() != "" || s.Node() != "" || s.Depth() != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
	s.SetRemoteParent(Parent{Node: "x", SpanID: "1", Depth: 0}) // must not panic
}

// FuzzParseParent: the X-NSDF-Trace-Parent parser reads a header any
// client can send. It never panics, never yields a negative depth, and
// an accepted header's canonical rendering parses back to the same
// Parent.
func FuzzParseParent(f *testing.F) {
	for _, seed := range []string{"store-a/2f@3", "", "@", "a/b", "a/b@", "a/b@-1", "/b@0", "a/@0", "a/b/c@+07", "a@b/c@1", "a/b@99999999999999999999"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		p, ok := ParseParent(header)
		if !ok {
			if p != (Parent{}) {
				t.Fatalf("rejected %q but returned %+v", header, p)
			}
			return
		}
		if p.Depth < 0 || p.Node == "" || p.SpanID == "" {
			t.Fatalf("accepted %q as %+v", header, p)
		}
		again, ok := ParseParent(p.String())
		if !ok || again != p {
			t.Fatalf("%q parsed to %+v, whose rendering %q parses to %+v (ok=%v)", header, p, p.String(), again, ok)
		}
	})
}
