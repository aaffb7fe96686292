// Command mtc-lint is the repository's static-analysis multichecker:
// it runs the four repo-specific analyzers (mapiter, ctxpoll, hotalloc,
// goroleak — see docs/lint.md) over the module and reports every
// finding as file:line:col: analyzer: message.
//
//	go run ./cmd/mtc-lint ./...            # whole module
//	go run ./cmd/mtc-lint -mapiter=false ./internal/core
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics
// reported — the contract the lint-analysis CI job keys off.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mtc/internal/analysis"
	"mtc/internal/analysis/ctxpoll"
	"mtc/internal/analysis/goroleak"
	"mtc/internal/analysis/hotalloc"
	"mtc/internal/analysis/mapiter"
)

func main() {
	os.Exit(run())
}

// all returns the analyzer set in reporting order.
func all() []*analysis.Analyzer {
	return []*analysis.Analyzer{ctxpoll.Analyzer, goroleak.Analyzer, hotalloc.Analyzer, mapiter.Analyzer}
}

// run lints the packages named on the command line and returns the
// exit status.
func run() int {
	fs := flag.NewFlagSet("mtc-lint", flag.ExitOnError)
	enabled := make(map[string]*bool)
	for _, a := range all() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '('); i > 0 {
			doc = strings.TrimSpace(doc[:i])
		}
		enabled[a.Name] = fs.Bool(a.Name, true, doc)
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mtc-lint [-<analyzer>=false ...] [packages]\n\nAnalyzers (all on by default):\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtc-lint:", err)
		return 1
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtc-lint:", err)
		return 1
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtc-lint:", err)
		return 1
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtc-lint:", err)
		return 1
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range all() {
			if !*enabled[a.Name] {
				continue
			}
			pass := pkg.Pass(a, func(d analysis.Diagnostic) { diags = append(diags, d) })
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "mtc-lint: %s: %s: %v\n", pkg.ImportPath, a.Name, err)
				return 1
			}
		}
	}
	if len(diags) == 0 {
		return 0
	}
	lines := make([]string, 0, len(diags))
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		lines = append(lines, fmt.Sprintf("%s:%d:%d: %s: %s", file, pos.Line, pos.Column, d.Analyzer.Name, d.Message))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Fprintf(os.Stderr, "mtc-lint: %d finding(s)\n", len(diags))
	return 2
}
