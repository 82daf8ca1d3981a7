// Package droppederr is a lint fixture: every violation below is
// asserted by internal/lint's golden-file tests.
package droppederr

import (
	"context"
	"os"

	"nsdfgo/internal/idx"
)

func violations(ctx context.Context, be idx.Backend, f *os.File, path string) []byte {
	be.Put(ctx, "obj", nil)       // want: bare call into the idx scope
	_ = be.Put(ctx, "obj2", nil)  // want: error assigned to _
	f.Close()                     // want: bare io.Closer call
	os.Remove(path)               // want: bare os.Remove
	data, _ := be.Get(ctx, "obj") // want: error result blanked
	return data
}

func handled(ctx context.Context, be idx.Backend, f *os.File) error {
	if err := be.Put(ctx, "obj", nil); err != nil { // ok: error checked
		return err
	}
	defer f.Close() // ok: deferred cleanup is exempt
	//lint:allow droppederr fixture demonstrates the escape hatch
	be.Put(ctx, "ignored", nil) // suppressed by the allow comment
	return nil
}
