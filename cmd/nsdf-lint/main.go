// Command nsdf-lint runs the repository's project-specific static
// analyzers (see internal/lint) over module packages. It is stdlib-only
// and joins `make check` via the lint target.
//
// Usage:
//
//	nsdf-lint [-json] [-list] [patterns ...]
//
// Patterns default to ./... and follow the go tool's shape: ./dir,
// ./dir/..., or ./... for the whole module. Exit status is 0 when
// clean, 1 when any finding is reported, 2 on usage or load errors and
// on analyzer internal errors (a panic, a CFG that failed to build, a
// dataflow fixpoint that did not converge) — a malfunctioning analyzer
// must never let CI pass by reporting nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nsdfgo/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nsdf-lint [-json] [-list] [patterns ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-lint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-lint:", err)
		return 2
	}
	findings, internalErrs := lint.RunAll(pkgs, lint.Analyzers())

	cwd, _ := os.Getwd()
	if *jsonOut {
		type jsonFinding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     relPath(cwd, f.Pos.Filename),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "nsdf-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	// Internal errors outrank findings: each already names the analyzer
	// and the package it was visiting.
	if len(internalErrs) > 0 {
		for _, e := range internalErrs {
			fmt.Fprintln(os.Stderr, "nsdf-lint: internal error:", e)
		}
		fmt.Fprintf(os.Stderr, "nsdf-lint: %d internal analyzer error(s)\n", len(internalErrs))
		return 2
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "nsdf-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the first
// directory containing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// relPath renders p relative to base when that is shorter and stays
// inside it; otherwise the absolute path.
func relPath(base, p string) string {
	if base == "" {
		return p
	}
	if rel, err := filepath.Rel(base, p); err == nil && !filepath.IsAbs(rel) && rel != "" && !hasDotDot(rel) {
		return rel
	}
	return p
}

func hasDotDot(p string) bool {
	return p == ".." || len(p) >= 3 && p[:3] == ".."+string(filepath.Separator)
}
