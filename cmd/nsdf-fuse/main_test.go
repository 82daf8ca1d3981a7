package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nsdfgo/internal/storage"
)

// TestRunToySize moves one file put → ls → get → rm through every
// mapping, against a FileStore directory and against a token-protected
// HTTP store, and checks that the bytes come back identical and that a
// wrong token is an error.
func TestRunToySize(t *testing.T) {
	data := bytes.Repeat([]byte("nsdf-fuse "), 300) // 3000 bytes: three 1 KiB chunks
	local := filepath.Join(t.TempDir(), "in.bin")
	if err := os.WriteFile(local, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(storage.NewServer(storage.NewMemStore(), "secret"))
	defer srv.Close()

	cli := func(args ...string) (string, error) {
		fs := flag.NewFlagSet("nsdf-fuse", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var out strings.Builder
		err := run(fs, args, &out)
		return out.String(), err
	}
	for _, store := range []struct {
		name string
		args []string
	}{
		{"file", []string{"-store", t.TempDir()}},
		{"http", []string{"-store", srv.URL, "-token", "secret"}},
	} {
		for _, mapping := range []string{"one-to-one", "chunked", "compressed"} {
			t.Run(store.name+"/"+mapping, func(t *testing.T) {
				do := func(cmd ...string) string {
					t.Helper()
					args := append(append([]string{}, store.args...), "-mapping", mapping, "-chunk-kb", "1")
					out, err := cli(append(args, cmd...)...)
					if err != nil {
						t.Fatalf("%v: %v", cmd, err)
					}
					return out
				}
				do("put", local, "data/f.bin")
				if out := do("ls", "data/"); !strings.Contains(out, "data/f.bin") {
					t.Fatalf("ls after put lacks the file:\n%s", out)
				}
				got := filepath.Join(t.TempDir(), "out.bin")
				do("get", "data/f.bin", got)
				back, err := os.ReadFile(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, data) {
					t.Fatalf("read back %d bytes, not the %d put", len(back), len(data))
				}
				do("rm", "data/f.bin")
				if out := do("ls", "data/"); strings.Contains(out, "data/f.bin") {
					t.Fatalf("ls after rm still lists the file:\n%s", out)
				}
			})
		}
	}

	// HEAD answers the object's size without a body.
	ctx := context.Background()
	if _, err := cli("-store", srv.URL, "-token", "secret", "put", local, "head.bin"); err != nil {
		t.Fatal(err)
	}
	if info, err := storage.NewClient(srv.URL, "secret").Stat(ctx, "head.bin"); err != nil || info.Size != int64(len(data)) {
		t.Fatalf("Stat over HEAD = %+v, %v; want size %d", info, err, len(data))
	}
	for _, cmd := range [][]string{{"ls"}, {"put", local, "g.bin"}, {"get", "head.bin", filepath.Join(t.TempDir(), "x")}} {
		if _, err := cli(append([]string{"-store", srv.URL, "-token", "wrong"}, cmd...)...); err == nil {
			t.Errorf("%v with a bad token succeeded", cmd)
		}
	}
}
