package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
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

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(root, "internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if pkg == nil {
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
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, name := range []string{"kinda", "kindb"} {
		pkg, err := loader.LoadDir(filepath.Join(root, "internal", "lint", "testdata", "src", "kindconflict", name))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings := Run(pkgs, []*Analyzer{analyzerByName(t, "metricname")})
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 cross-package kind conflict, got %d: %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "registered as gauge here but as counter") {
		t.Errorf("unexpected conflict message: %s", findings[0].Message)
	}
}

// TestRepoIsFlowLintClean runs just the obligation engine's specs over
// the real module, separately from the full-suite gate, so a CFG or
// dataflow regression is attributed to this layer directly. Internal
// analyzer errors (a CFG that failed to build, a fixpoint that did not
// converge) fail the test too, via RunAll.
func TestRepoIsFlowLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is not short")
	}
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var flow []*Analyzer
	for _, spec := range obligationSpecs {
		flow = append(flow, analyzerByName(t, spec.name))
	}
	findings, errs := RunAll(pkgs, flow)
	for _, e := range errs {
		t.Errorf("internal error: %v", e)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
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

// TestRepoIsLintClean runs the full suite over the real module — the
// same gate as `make lint` — so a regression in any enforced invariant
// fails the ordinary test run too.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is not short")
	}
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion looks broken", len(pkgs))
	}
	findings := Run(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestObligationIsASpec proves a new obligation is a spec value, not a
// new analyzer: a throw-away fourth spec (time.NewTicker must reach
// Stop) run through the same engine finds the leak and the discarded
// ticker and stays quiet on the deferred and the handed-on one.
func TestObligationIsASpec(t *testing.T) {
	spec := &obSpec{
		name: "tickerstop",
		acquire: func(pass *Pass, call *ast.CallExpr) (obAcquire, bool) {
			fn := calleeFunc(pass.Pkg.Info, call)
			return obAcquire{src: "time.NewTicker"}, fn != nil && fn.FullName() == "time.NewTicker"
		},
		holds:     func(t types.Type) bool { return pointsTo(t, "time", "Ticker") },
		discharge: func(_ *Pass, call *ast.CallExpr) ast.Expr { return methodRecv(call, "Stop") },
		merge:     mergeKeepOwed,
		msg: obMessages{
			leak:    `ticker "{name}" from {src} can reach {arg} without Stop`,
			discard: `ticker from {src} is discarded: nothing can stop it`,
		},
	}
	pkg := loadFixture(t, "obligation")
	findings := Run([]*Package{pkg}, []*Analyzer{{Name: spec.name, Doc: "test spec", Run: spec.run}})

	got := map[string][]string{} // enclosing function → messages
	for _, f := range findings {
		for _, decl := range pkg.Files[0].Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && pkg.Fset.Position(fd.Pos()).Line <= f.Pos.Line && f.Pos.Line <= pkg.Fset.Position(fd.End()).Line {
				got[fd.Name.Name] = append(got[fd.Name.Name], f.Message)
			}
		}
	}
	for _, tc := range []struct{ fn, want string }{
		{"leak", `ticker "t" from time.NewTicker can reach the return at line 17 without Stop`},
		{"discarded", `ticker from time.NewTicker is discarded: nothing can stop it`},
		{"deferred", ""},
		{"escaped", ""},
	} {
		msgs := got[tc.fn]
		switch {
		case tc.want == "" && len(msgs) != 0:
			t.Errorf("%s: want no finding, got %q", tc.fn, msgs)
		case tc.want != "" && (len(msgs) != 1 || msgs[0] != tc.want):
			t.Errorf("%s: want exactly %q, got %q", tc.fn, tc.want, msgs)
		}
	}
}
