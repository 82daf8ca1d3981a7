// Package ctxbackground is a lint fixture: every violation below is
// asserted by internal/lint's golden-file tests.
package ctxbackground

import "context"

// fetch mints root contexts instead of accepting one — both spellings
// must fire.
func fetch() error {
	ctx := context.Background() // want: root context in library code
	_ = ctx
	todo := context.TODO() // want: TODO is just as detached
	_ = todo
	return nil
}

// threaded accepts the caller's context: nothing to report.
func threaded(ctx context.Context) error {
	sub, cancel := context.WithCancel(ctx) // ok: derives from the caller
	defer cancel()
	<-sub.Done()
	return sub.Err()
}

// escapeHatch shows the suppression path for the rare legitimate root
// (e.g. a long-lived janitor detached from any request), in the
// comma-separated form that names several analyzers at once.
func escapeHatch() context.Context {
	//lint:allow ctxhttp,ctxbackground detached janitor lifetime is intentional
	return context.Background()
}
