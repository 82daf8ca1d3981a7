package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoaderFollowsTheGoTool pins the loader's contract on a module of
// its own: ./... is the go tool's ./... less packages with only test
// files, and a standard import the repository never makes still
// type-checks (each Load lists its own dependencies); a pattern inside
// a nested module is listed in that module; and a pattern that names no
// package is an error, not an empty, clean result.
func TestLoaderFollowsTheGoTool(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":        "module example.com/m\n\ngo 1.22\n",
		"a/a.go":        "package a\n\nimport \"net/netip\"\n\nvar Loopback = netip.IPv6Loopback()\n",
		"b/b_test.go":   "package b\n",
		"c/go.mod":      "module example.com/m/c\n\ngo 1.22\n",
		"c/c.go":        "package c\n",
		"empty/README":  "no Go files here\n",
		"empty/x/x.txt": "nor here\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader := NewLoader(root)

	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/m/a" {
		t.Fatalf("./... loaded %v, want exactly example.com/m/a", paths(pkgs))
	}
	v := pkgs[0].Types.Scope().Lookup("Loopback")
	if v == nil || v.Type().String() != "net/netip.Addr" {
		t.Errorf("a.Loopback = %v, want a net/netip.Addr", v)
	}

	pkgs, err = loader.Load("./c/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/m/c" {
		t.Errorf("./c/... loaded %v, want exactly example.com/m/c", paths(pkgs))
	}

	for _, pat := range []string{"./nope", "./nope/...", "./empty", "./empty/..."} {
		if pkgs, err := loader.Load(pat); err == nil {
			t.Errorf("Load(%q) = %v, want an error", pat, paths(pkgs))
		}
	}
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}
