package telemetry

import "testing"

// TestNonStrictLogsOnceAndStillRegisters checks the registry never
// panics over a name: a misnamed family (the metricname analyzer's
// concern, not the registry's) still registers and counts.
func TestNonStrictLogsOnceAndStillRegisters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bad-name.total")
	c.Inc()
	c.Inc()
	r.Counter("bad-name.total").Inc() // same family and series

	if got := c.Value(); got != 3 {
		t.Fatalf("misnamed counter value = %v, want 3", got)
	}
}
