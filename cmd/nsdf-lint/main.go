// Command nsdf-lint runs the repository's project-specific static
// analyzers (see internal/lint) over module packages. It is stdlib-only
// and joins `make check` via the lint target.
//
// Usage:
//
//	nsdf-lint [-json] [-list] [patterns ...]
//
// Patterns default to ./... and are the go tool's: ./dir names one
// directory, ./dir/... every package below it in its module, and a
// pattern with no leading ./ (dir, nsdfgo/dir) an import path. A
// relative pattern inside a directory with a go.mod of its own, such as
// ./bench/..., is listed in that module. Exit status is 0 when
// clean, 1 when any finding is reported, 2 on usage or load errors and
// on analyzer internal errors (a panic, a CFG that failed to build, a
// dataflow fixpoint that did not converge) — a malfunctioning analyzer
// must never let CI pass by reporting nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nsdfgo/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsdf-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.NewLoader(".").Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "nsdf-lint:", err)
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
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "nsdf-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(cwd, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
	}
	// Internal errors outrank findings: each already names the analyzer
	// and the package it was visiting.
	if len(internalErrs) > 0 {
		for _, e := range internalErrs {
			fmt.Fprintln(stderr, "nsdf-lint: internal error:", e)
		}
		fmt.Fprintf(stderr, "nsdf-lint: %d internal analyzer error(s)\n", len(internalErrs))
		return 2
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "nsdf-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// relPath renders p relative to base when it lies inside base;
// otherwise the absolute path.
func relPath(base, p string) string {
	if rel, err := filepath.Rel(base, p); err == nil && filepath.IsLocal(rel) {
		return rel
	}
	return p
}
