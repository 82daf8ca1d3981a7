package telemetry

import (
	"bytes"
	"log"
	"strings"
	"testing"
)

// TestStrictRejectsBadMetricName proves the runtime counterpart of the
// metricname analyzer: a strict registry panics on a name outside
// ^nsdf_[a-z0-9_]+$, so dynamically assembled names cannot slip past
// the static pass.
func TestStrictRejectsBadMetricName(t *testing.T) {
	r := NewRegistry()
	r.SetStrict(true)

	defer func() {
		if recover() == nil {
			t.Fatal("strict registry accepted metric name outside the nsdf_ convention")
		}
	}()
	r.Counter("requests_total").Inc()
}

// TestStrictAcceptsConformingName checks strict mode does not get in
// the way of well-named metrics.
func TestStrictAcceptsConformingName(t *testing.T) {
	r := NewRegistry()
	r.SetStrict(true)
	r.Counter("nsdf_strict_ok_total").Inc()
	r.Gauge("nsdf_strict_live", "shard", "0").Set(3)
	var sb strings.Builder
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nsdf_strict_ok_total 1") {
		t.Fatalf("conforming counter missing from exposition:\n%s", sb.String())
	}
}

// TestNonStrictLogsOnceAndStillRegisters checks non-strict mode: a bad
// name is reported on the standard logger exactly once per name, but
// the series still works so production callers never crash.
func TestNonStrictLogsOnceAndStillRegisters(t *testing.T) {
	var buf bytes.Buffer
	old := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(old)

	r := NewRegistry()
	c := r.Counter("bad-name.total")
	c.Inc()
	c.Inc()
	r.Counter("bad-name.total").Inc() // same family and series: no second log line

	if got := c.Value(); got != 3 {
		t.Fatalf("misnamed counter value = %v, want 3", got)
	}
	logged := buf.String()
	if n := strings.Count(logged, "bad-name.total"); n != 1 {
		t.Fatalf("want exactly 1 warning for the misnamed family, got %d:\n%s", n, logged)
	}
	if !strings.Contains(logged, "nsdf_") {
		t.Fatalf("warning should cite the naming pattern:\n%s", logged)
	}
}
