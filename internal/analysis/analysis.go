// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer runs over
// one type-checked package (a Pass) and reports position-anchored
// Diagnostics. The build image this repository grows in has no module
// proxy access, so the real x/tools module cannot be pulled in; the
// subset here — Analyzer, Pass, Reportf, a module-aware loader
// (load.go) and a `// want`-comment test harness (analysistest) — is
// shaped after the upstream API so the repo's analyzers port to the
// real framework by changing one import path if x/tools ever becomes
// available.
//
// The analyzers themselves live in the subpackages mapiter, ctxpoll,
// hotalloc and goroleak, and machine-check the invariants the repo's
// differential and race suites otherwise only catch after the fact:
// deterministic verdicts, prompt cancellation, allocation-free hot
// paths, and joined goroutines. cmd/mtc-lint is the multichecker
// driver; docs/lint.md documents each rule and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// Analyzer is one lint rule: a name, a documentation string (the first
// sentence is the short description) and the per-package entry point.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	comments map[string]map[int][]string // filename -> line -> comment texts
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer})
}

// PkgTail returns the last element of an import path: the package-name
// key the repo-specific analyzers match their watched-package sets
// against ("mtc/internal/core" and an analysistest package "core" both
// key as "core").
func PkgTail(importPath string) string { return path.Base(importPath) }

// commentIndex builds the per-line comment lookup on first use.
func (p *Pass) commentIndex() map[string]map[int][]string {
	if p.comments != nil {
		return p.comments
	}
	p.comments = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				m := p.comments[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					p.comments[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], c.Text)
			}
		}
	}
	return p.comments
}

// Suppressed reports whether a comment carrying marker (e.g.
// "mtc:nondeterministic-ok") sits on the same line as pos or on the
// line directly above it — the suppression convention documented in
// docs/lint.md. The marker must follow the directive-comment form
// "//mtc:name", optionally trailed by a justification.
func (p *Pass) Suppressed(pos token.Pos, marker string) bool {
	position := p.Fset.Position(pos)
	lines := p.commentIndex()[position.Filename]
	for _, l := range []int{position.Line, position.Line - 1} {
		for _, text := range lines[l] {
			if strings.Contains(text, "//"+marker) {
				return true
			}
		}
	}
	return false
}

// FuncAnnotated reports whether fd carries marker in its doc comment or
// on the line directly above its declaration ("//mtc:hotpath" opts a
// function into the hotalloc analyzer this way).
func (p *Pass) FuncAnnotated(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.Contains(c.Text, "//"+marker) {
				return true
			}
		}
	}
	return p.Suppressed(fd.Pos(), marker)
}

// WithStack walks root in depth-first order invoking fn with each node
// and the stack of its ancestors (outermost first, excluding n itself).
// Returning false prunes the subtree below n.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := fn(n, stack)
		if !ok {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// IsWaitGroupType reports whether t (or its pointee) is sync.WaitGroup.
func IsWaitGroupType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// PkgFuncCall reports whether call invokes a package-level function of
// one of the named packages (matched by import path tail, so "sort" and
// a vendored "x/sort" both key as "sort"), returning the function name.
func PkgFuncCall(info *types.Info, call *ast.CallExpr, pkgs ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	tail := PkgTail(pn.Imported().Path())
	for _, p := range pkgs {
		if tail == p {
			return sel.Sel.Name, true
		}
	}
	return "", false
}
