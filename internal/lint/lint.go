// Package lint is the repo's own static-analysis suite: seven analyzers
// that machine-check the conventions the serving stack depends on and
// no test or go vet pass sees. Four are syntactic — nsdf_-prefixed
// constant metric names, no silently dropped storage/IDX errors, and
// caller-threaded contexts (no context.Background() in library code, no
// context-free http.NewRequest in outbound calls). Three are
// flow-sensitive and are one analysis: obligation.go checks, over the
// control-flow graphs of internal/lint/cfg, that a resource acquired by
// a call is discharged on every path, and lockorder (mutexes, plus the
// whole-repo lock-order cycle check), ctxleak (cancel functions of
// derived contexts) and spanend (trace spans) are the three specs it
// runs. Allocation and worker abort are policed by measurement, in
// tests, and copied mutexes by go vet's copylocks pass. The
// project-specific names the analyzers match on (package paths,
// registry methods) are constants beside each analyzer. It is built
// only on go/ast, go/parser, go/types, and go/importer, so `make lint`
// needs nothing beyond the Go toolchain.
//
// A finding can be suppressed — sparingly, with a reason — by an allow
// comment on the same line or the line above:
//
//	//lint:allow droppederr best-effort cleanup on shutdown
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Analyzer names the rule that fired.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message explains the violation.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass is the per-package unit of work handed to an analyzer.
type Pass struct {
	// Analyzer is the rule being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// State persists across the packages of one Run for this analyzer,
	// so cross-package rules (metric kind conflicts, the whole-repo lock
	// graph) can accumulate.
	State map[string]any

	findings *[]Finding
	errs     *[]error
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a finding at an already-resolved position. Finish
// hooks use it: they run after the per-package passes, so positions must
// have been resolved while the owning package was in hand.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InternalErrorf records an analyzer malfunction (not a finding): a CFG
// that failed to build, a dataflow fixpoint that did not converge. The
// driver treats any internal error as a failed run (exit 2), so a
// broken analyzer can never make CI pass by producing zero findings.
func (p *Pass) InternalErrorf(format string, args ...any) {
	pkg := "(finish)"
	if p.Pkg != nil {
		pkg = p.Pkg.Path
	}
	*p.errs = append(*p.errs, fmt.Errorf("analyzer %s: package %s: %s", p.Analyzer.Name, pkg, fmt.Sprintf(format, args...)))
}

// Analyzer is one lint rule.
type Analyzer struct {
	// Name is the rule identifier used in output and allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
	// Finish, when non-nil, runs once after every package has been
	// analyzed, with a Pass whose Pkg is nil. Whole-program rules (the
	// lockorder cycle check) accumulate in State during Run and report
	// here via ReportAt.
	Finish func(*Pass)
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MetricNameAnalyzer,
		DroppedErrAnalyzer,
		CtxBackgroundAnalyzer,
		CtxHTTPAnalyzer,
		SpanEndAnalyzer,
		LockOrderAnalyzer,
		CtxLeakAnalyzer,
	}
}

// RunAll executes the analyzers over the packages and returns the
// findings that survive allow-comment suppression, sorted by position,
// along with any internal analyzer errors. A panicking analyzer is
// recovered into an error naming the analyzer and the package it was
// visiting, so the driver can exit non-zero with a useful message
// instead of crashing or — worse — silently reporting a clean run.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []error) {
	var findings []Finding
	var errs []error
	for _, a := range analyzers {
		state := make(map[string]any)
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, State: state, findings: &findings, errs: &errs}
			if err := runRecovering(a.Run, pass); err != nil {
				errs = append(errs, err)
			}
		}
		if a.Finish != nil {
			pass := &Pass{Analyzer: a, State: state, findings: &findings, errs: &errs}
			if err := runRecovering(a.Finish, pass); err != nil {
				errs = append(errs, err)
			}
		}
	}
	allow := buildAllowIndex(pkgs)
	kept := findings[:0]
	for _, f := range findings {
		if !allow.suppresses(f) {
			kept = append(kept, f)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, errs
}

// runRecovering invokes fn(pass), converting a panic into an internal
// error naming the analyzer and package.
func runRecovering(fn func(*Pass), pass *Pass) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pkg := "(finish)"
			if pass.Pkg != nil {
				pkg = pass.Pkg.Path
			}
			err = fmt.Errorf("analyzer %s: package %s: panic: %v", pass.Analyzer.Name, pkg, r)
		}
	}()
	fn(pass)
	return nil
}

// allowIndex records, per file and line, which analyzers an
// //lint:allow comment switches off.
type allowIndex map[string]map[int]map[string]bool

// buildAllowIndex scans every comment in every file for allow
// directives. A directive names one analyzer or a comma-separated list:
//
//	//lint:allow droppederr
//	//lint:allow droppederr,ctxleak best-effort shutdown path
func buildAllowIndex(pkgs []*Package) allowIndex {
	idx := make(allowIndex)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "lint:allow")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					byLine := idx[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						idx[pos.Filename] = byLine
					}
					names := byLine[pos.Line]
					if names == nil {
						names = make(map[string]bool)
						byLine[pos.Line] = names
					}
					for _, name := range strings.Split(fields[0], ",") {
						names[strings.TrimSpace(name)] = true
					}
				}
			}
		}
	}
	return idx
}

// suppresses reports whether an allow comment on the finding's line or
// the line above names its analyzer.
func (idx allowIndex) suppresses(f Finding) bool {
	byLine := idx[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [...]int{f.Pos.Line, f.Pos.Line - 1} {
		if byLine[line][f.Analyzer] {
			return true
		}
	}
	return false
}
