// Package obligation is a lint fixture for TestObligationIsASpec: four
// tiny bodies over a resource none of the shipped analyzers knows
// (os.Open must reach Close), checked by a spec that exists only in the
// test.
package obligation

import "os"

// leak returns on the happy path with the file still open.
func leak(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_ = f
	return nil
}

// doubleClose closes the same file twice.
func doubleClose(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	f.Close()
	f.Close()
}

// deferred is the canonical correct shape.
func deferred(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// escaped hands the open file to the caller.
func escaped(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}
