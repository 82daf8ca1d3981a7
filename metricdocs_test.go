package nsdfgo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	// metricFamily is a whole string literal that names a metric family.
	metricFamily = regexp.MustCompile(`^nsdf_[a-z0-9_]*[a-z0-9]$`)
	// docMetric is a family as README.md writes it: a name, or a prefix
	// ending in "_" followed by a {a,b,...} group of suffixes.
	docMetric = regexp.MustCompile(`nsdf_[a-z0-9_]*(\{[a-z0-9_,]+\}[a-z0-9_]*)?`)
)

// TestMetricDocsInSync keeps README.md's metric documentation and the
// registered metric families one set: every "nsdf_..." family literal in
// the program sources under internal/ and cmd/ is named in the README,
// and every family the README names is registered somewhere. Deleting a
// metric without its docs, or documenting one that does not exist,
// fails here.
func TestMetricDocsInSync(t *testing.T) {
	src := map[string]string{} // family -> first file that names it
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(lit.Value); err == nil && metricFamily.MatchString(s) {
					if _, seen := src[s]; !seen {
						src[s] = path
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(src) == 0 {
		t.Fatal("no metric family literals found; the scan is broken")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]bool{}
	for _, m := range docMetric.FindAllString(string(readme), -1) {
		prefix, group, ok := strings.Cut(m, "{")
		if !ok || !strings.HasSuffix(prefix, "_") {
			// A plain name; a "{" after a complete name opens its labels.
			doc[prefix] = true
			continue
		}
		names, suffix, _ := strings.Cut(group, "}")
		for _, name := range strings.Split(names, ",") {
			doc[prefix+name+suffix] = true
		}
	}

	for _, name := range sortedKeys(src) {
		if !doc[name] {
			t.Errorf("%s (registered in %s) is not documented in README.md", name, src[name])
		}
	}
	for _, name := range sortedKeys(doc) {
		if _, ok := src[name]; !ok {
			t.Errorf("README.md documents %s, which no program source registers", name)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
