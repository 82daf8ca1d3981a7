package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestFlagsGolden compares the command line run declares — name, type
// and default of every flag — with testdata/flags.golden, which was
// recorded from the binary before the shared flags moved into
// internal/serverkit. run is handed -h, so it returns from Parse with
// every flag declared and nothing started.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("nsdf-netmon", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := run(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		typ := strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%T", f.Value), "*flag."), "Value")
		fmt.Fprintf(&got, "%s %s %q\n", f.Name, typ, f.DefValue)
	})
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag set differs from testdata/flags.golden\n got:\n%swant:\n%s", got.String(), want)
	}
}
