// Package ctxleak is a lint fixture: every violation below is asserted
// by internal/lint's golden-file tests. It exercises the defer-next
// rule for derived contexts: cancel skipped on a branch, discarded
// cancel funcs, and the explicit-call and hand-off shapes it refuses.
package ctxleak

import (
	"context"
	"errors"
	"time"
)

// leakOnErrReturn derives a context but returns on the error branch
// before the cancel is deferred — must fire.
func leakOnErrReturn(ctx context.Context, check func() error) error {
	cctx, cancel := context.WithCancel(ctx) // want: cancel not called on every path
	if err := check(); err != nil {
		return err // cancel never runs here: the child goroutine leaks
	}
	defer cancel()
	return work(cctx)
}

// timeoutLeak arms a timer and abandons the cancel entirely — must
// fire.
func timeoutLeak(ctx context.Context) error {
	tctx, cancel := context.WithTimeout(ctx, time.Second) // want: cancel never called
	if err := work(tctx); err != nil {
		return err
	}
	_ = cancel
	return nil
}

// discardedCancel throws the cancel away at the call site — must fire.
func discardedCancel(ctx context.Context) context.Context {
	cctx, _ := context.WithCancel(ctx) // want: cancel discarded
	return cctx
}

// deferClean is the canonical correct shape: nothing to report.
func deferClean(ctx context.Context) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return work(cctx)
}

// cancelOnEveryBranch calls cancel on every path, deferring it on none.
func cancelOnEveryBranch(ctx context.Context, fail bool) error {
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	if fail {
		cancel()
		return errors.New("boom")
	}
	err := work(cctx)
	cancel()
	return err
}

// deferClosureClean cancels inside a deferred closure: nothing to
// report.
func deferClosureClean(ctx context.Context) error {
	cctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
	}()
	return work(cctx)
}

// returnedCancel hands the cancel to the caller — must fire: a cancel
// is deferred where its context is derived.
func returnedCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	cctx, cancel := context.WithCancel(ctx)
	return cctx, cancel
}

// storedCancel stores the cancel for a shutdown sweep — must fire:
// the rule follows no hand-off.
func storedCancel(ctx context.Context, cancels []context.CancelFunc) ([]context.Context, []context.CancelFunc) {
	cctx, cancel := context.WithCancel(ctx)
	cancels = append(cancels, cancel)
	return []context.Context{cctx}, cancels
}

// goroutineCancel leaves cancel to a goroutine — must fire: only a
// defer on the next statement counts.
func goroutineCancel(ctx context.Context, done <-chan struct{}) context.Context {
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-done
		cancel()
	}()
	return cctx
}

// escapeHatch shows the suppression path for a cancel intentionally
// left to the process lifetime.
func escapeHatch(ctx context.Context) context.Context {
	//lint:allow ctxleak cancelled implicitly at process shutdown
	cctx, cancel := context.WithCancel(ctx)
	_ = cancel
	return cctx
}

func work(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Millisecond):
		return nil
	}
}

// holder keeps a cancel function in a field.
type holder struct{ cancel context.CancelFunc }

// fieldCancel stores the cancel straight into a field — must fire.
func (h *holder) fieldCancel(ctx context.Context) context.Context {
	var cctx context.Context
	cctx, h.cancel = context.WithCancel(ctx) // want: not assigned to a variable
	return cctx
}
