// Package ctxpoll enforces the cancellation contract of the hot
// engine packages: a job must stop within one polling stride of its
// context being canceled (the <2s bound the server's job tests assert),
// so every loop that can run long must be able to observe ctx. In a
// function that takes a context.Context, the analyzer flags
//
//   - unbounded `for { ... }` loops that never poll ctx.Err()/ctx.Done()
//     directly — a fixpoint driver must prove cancellation at its own
//     level, not hope a callee happens to (the house style is a poll at
//     the top of the loop, as in polygraph.Prune); and
//   - loop nests (a loop containing another loop) that neither poll ctx
//     nor pass ctx to any callee — quadratic-or-worse work that nothing
//     can interrupt.
//
// Single bounded loops are not candidates: a linear no-call scan
// completes within any realistic polling stride, and flagging every
// merge-join would drown the signal. A loop that genuinely cannot run
// long (or is bounded by construction) is annotated
// //mtc:cancellation-ok with the reason (docs/lint.md).
package ctxpoll

import (
	"go/ast"

	"mtc/internal/analysis"
)

// Analyzer is the ctxpoll rule.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "flags hot-package loops that cannot observe context cancellation (the <2s cancellation contract)",
	Run:  run,
}

// watched lists the packages whose checks run under job deadlines.
var watched = map[string]bool{
	"core": true, "sat": true, "polygraph": true, "cobra": true,
	"polysi": true, "levels": true, "graph": true,
}

// Marker is the suppression annotation.
const Marker = "mtc:cancellation-ok"

func run(pass *analysis.Pass) error {
	if !watched[analysis.PkgTail(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParams := contextParams(pass, fd)
			if len(ctxParams) == 0 {
				continue
			}
			checkBody(pass, fd.Body, ctxParams)
		}
	}
	return nil
}

// contextParams collects the objects of fd's context.Context parameters.
func contextParams(pass *analysis.Pass, fd *ast.FuncDecl) map[string]bool {
	names := make(map[string]bool)
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || !analysis.IsContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			names[name.Name] = true
		}
	}
	return names
}

// checkBody walks the loops of a function body. Loops inside function
// literals are skipped: goroutine bodies and callbacks run under their
// spawner's discipline (the shard driver's workers poll ctx between
// components). The nest rule fires once, at the outermost loop — a stride
// poll at the top of the nest covers everything below it — while the
// unbounded-loop rule applies at any depth.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, ctx map[string]bool) {
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			outermost := true
			for _, anc := range stack {
				switch anc.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					outermost = false
				}
			}
			checkNest(pass, n, ctx, outermost)
		}
		return true
	})
}

// checkNest decides one loop: the unbounded rule at any depth, the
// nest rule only for outermost loops.
func checkNest(pass *analysis.Pass, loop ast.Node, ctx map[string]bool, outermost bool) {
	infinite := false
	if fs, ok := loop.(*ast.ForStmt); ok && fs.Cond == nil {
		infinite = true
	}
	nested := outermost && hasNestedLoop(loop)
	if !infinite && !nested {
		return
	}
	polls, passes := cancellationEvidence(pass, loop, ctx)
	switch {
	case polls:
		return
	case passes && !infinite:
		return // a callee holding ctx is responsible for polling
	case pass.Suppressed(loop.Pos(), Marker):
		return
	case infinite:
		pass.Reportf(loop.Pos(), "unbounded for-loop in a context-taking function never polls ctx.Err()/ctx.Done(); poll at the top of the loop or annotate //%s with the bound", Marker)
	default:
		pass.Reportf(loop.Pos(), "loop nest in a context-taking function neither polls ctx.Err()/ctx.Done() nor passes ctx to a callee; cancellation cannot interrupt it — add a stride poll or annotate //%s", Marker)
	}
}

// hasNestedLoop reports whether loop directly contains another loop,
// not counting loops inside function literals.
func hasNestedLoop(loop ast.Node) bool {
	body := loopBody(loop)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
			return false
		}
		return true
	})
	return found
}

func loopBody(loop ast.Node) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// cancellationEvidence scans the whole nest (function literals
// included — a poll inside a worker closure still observes ctx) for
// direct polls of a ctx parameter and for calls that pass a
// context.Context onward.
func cancellationEvidence(pass *analysis.Pass, loop ast.Node, ctx map[string]bool) (polls, passes bool) {
	isCtxExpr := func(e ast.Expr) bool {
		if id, ok := e.(*ast.Ident); ok && ctx[id.Name] {
			return true
		}
		tv, ok := pass.TypesInfo.Types[e]
		return ok && tv.Type != nil && analysis.IsContextType(tv.Type)
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isCtxExpr(sel.X) {
				polls = true
				return true
			}
		}
		for _, arg := range call.Args {
			if isCtxExpr(arg) {
				passes = true
			}
		}
		return true
	})
	return polls, passes
}
