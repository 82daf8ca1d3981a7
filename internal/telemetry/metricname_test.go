package telemetry

import (
	"bytes"
	"log"
	"strings"
	"testing"
)

// TestNonStrictLogsOnceAndStillRegisters checks the registry never
// panics over a name: a bad name is reported on the standard logger
// exactly once per name, but the series still works.
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
