// Package obligation is a lint fixture for TestObligationIsASpec: four
// tiny bodies over a resource none of the shipped analyzers knows
// (time.NewTicker must reach Stop), checked by a spec that exists only
// in the test.
package obligation

import "time"

// leak returns on the quiet path with the ticker still running.
func leak(d time.Duration, quit <-chan struct{}) bool {
	t := time.NewTicker(d)
	select {
	case <-t.C:
		t.Stop()
		return true
	case <-quit:
		return false
	}
}

// discarded starts a ticker nothing can ever stop.
func discarded(d time.Duration) {
	time.NewTicker(d)
}

// deferred is the canonical correct shape.
func deferred(d time.Duration, n int) {
	t := time.NewTicker(d)
	defer t.Stop()
	for i := 0; i < n; i++ {
		<-t.C
	}
}

// escaped hands the running ticker to the caller.
func escaped(d time.Duration) *time.Ticker {
	t := time.NewTicker(d)
	return t
}
