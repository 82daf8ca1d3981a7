package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the analyzer golden files")

// moduleRoot locates the repository root from the test's working
// directory (internal/lint).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// loadFixtures type-checks every fixture package under testdata/src
// once per test binary, keyed by its directory relative to
// testdata/src.
var loadFixtures = sync.OnceValues(func() (map[string]*Package, error) {
	pkgs, err := NewLoader(".").Load("./testdata/src/...")
	if err != nil {
		return nil, err
	}
	byDir := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		_, rel, _ := strings.Cut(pkg.Path, "/testdata/src/")
		byDir[rel] = pkg
	}
	return byDir, nil
})

// loadFixture returns one fixture package from the shared load.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := loadFixtures()
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	pkg, ok := pkgs[name]
	if !ok {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return pkg
}

// analyzerByName fetches one analyzer from the registered suite, so the
// tests exercise exactly what the driver runs.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// renderFindings formats findings with fixture-relative paths, one per
// line, matching the .golden files.
func renderFindings(pkg *Package, findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		file := filepath.Base(f.Pos.Filename)
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", file, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	return b.String()
}

// TestAnalyzerGoldens runs each analyzer over its fixture package and
// compares the surviving findings against the committed golden file.
// The fixtures contain both firing cases and //lint:allow-suppressed
// cases, so a matching golden proves the analyzer fires where it must
// and stays quiet where the escape hatch is used.
func TestAnalyzerGoldens(t *testing.T) {
	for _, a := range Analyzers() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			findings := Run([]*Package{pkg}, []*Analyzer{a})
			if len(findings) == 0 {
				t.Fatalf("analyzer %s produced no findings on its fixture", name)
			}
			got := renderFindings(pkg, findings)
			goldenPath := filepath.Join("testdata", "src", name, "expect.golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, string(want))
			}
		})
	}
}

// TestAllowCommentSuppresses asserts, independently of the goldens,
// that no finding lands on a line covered by a //lint:allow comment
// (same line or the line below it) in any fixture.
func TestAllowCommentSuppresses(t *testing.T) {
	for _, a := range Analyzers() {
		name := a.Name
		pkg := loadFixture(t, name)
		findings := Run([]*Package{pkg}, []*Analyzer{a})

		src, err := os.ReadFile(filepath.Join(pkg.Dir, name+".go"))
		if err != nil {
			t.Fatal(err)
		}
		allowLines := map[int]bool{}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "//lint:allow") {
				allowLines[i+1] = true
			}
		}
		if len(allowLines) == 0 {
			t.Fatalf("fixture %s has no //lint:allow case", name)
		}
		for _, f := range findings {
			if allowLines[f.Pos.Line] || allowLines[f.Pos.Line-1] {
				t.Errorf("%s: finding on allow-suppressed line: %s", name, f)
			}
		}
	}
}

// TestMetricNameKindConflictAcrossPackages checks that kind tracking
// spans packages within one Run: the same metric name registered as a
// counter in one package and a gauge in another is a conflict even
// though each package is internally consistent.
func TestMetricNameKindConflictAcrossPackages(t *testing.T) {
	var pkgs []*Package
	for _, name := range []string{"kinda", "kindb"} {
		pkgs = append(pkgs, loadFixture(t, "kindconflict/"+name))
	}
	findings := Run(pkgs, []*Analyzer{analyzerByName(t, "metricname")})
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 cross-package kind conflict, got %d: %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "registered as gauge here but as counter") {
		t.Errorf("unexpected conflict message: %s", findings[0].Message)
	}
}

// TestRunAllReportsInternalErrors proves a malfunctioning analyzer can
// never pass as a clean run: both a panic and an InternalErrorf call
// surface as errors naming the analyzer and the package.
func TestRunAllReportsInternalErrors(t *testing.T) {
	pkg := loadFixture(t, "spanend")
	panicky := &Analyzer{
		Name: "panicky",
		Doc:  "test analyzer that always panics",
		Run:  func(p *Pass) { panic("kaboom") },
	}
	erroring := &Analyzer{
		Name: "erroring",
		Doc:  "test analyzer that records an internal error",
		Run:  func(p *Pass) { p.InternalErrorf("cfg exploded") },
	}
	findings, errs := RunAll([]*Package{pkg}, []*Analyzer{panicky, erroring})
	if len(findings) != 0 {
		t.Errorf("unexpected findings: %v", findings)
	}
	if len(errs) != 2 {
		t.Fatalf("want 2 internal errors, got %d: %v", len(errs), errs)
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), pkg.Path) {
			t.Errorf("error does not name the failing package %q: %v", pkg.Path, e)
		}
	}
	if !strings.Contains(errs[0].Error(), "panicky") || !strings.Contains(errs[0].Error(), "kaboom") {
		t.Errorf("panic not attributed: %v", errs[0])
	}
	if !strings.Contains(errs[1].Error(), "erroring") || !strings.Contains(errs[1].Error(), "cfg exploded") {
		t.Errorf("InternalErrorf not attributed: %v", errs[1])
	}

	defer func() {
		if recover() == nil {
			t.Error("Run did not panic on internal errors")
		}
	}()
	Run([]*Package{pkg}, []*Analyzer{panicky})
}

// modulePatterns name every package `make lint` checks: the module and
// the nested bench module.
var modulePatterns = []string{"./...", "./bench/..."}

// loadModule type-checks the whole module once per test binary:
// TestRepoIsLintClean and TestEveryExportHasACaller share the load.
var loadModule = sync.OnceValues(func() ([]*Package, error) {
	return NewLoader(filepath.Join("..", "..")).Load(modulePatterns...)
})

// modulePackages is every package of the module, from the one shared
// load.
func modulePackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module type check is not short")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion looks broken", len(pkgs))
	}
	return pkgs
}

// TestRepoIsLintClean runs the full suite over the real module — the
// same gate as `make lint` — so a regression in any enforced invariant
// fails the ordinary test run too.
func TestRepoIsLintClean(t *testing.T) {
	for _, f := range Run(modulePackages(t), Analyzers()) {
		t.Errorf("%s", f)
	}
}

// Run executes the analyzers over the packages and returns the findings
// that survive allow-comment suppression, sorted by position. An
// analyzer internal error (see RunAll) panics: tests and callers that
// use Run treat a malfunctioning analyzer as a hard failure, never as a
// clean result.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, errs := RunAll(pkgs, analyzers)
	if len(errs) > 0 {
		panic(fmt.Sprintf("lint: %d internal analyzer error(s), first: %v", len(errs), errs[0]))
	}
	return findings
}
