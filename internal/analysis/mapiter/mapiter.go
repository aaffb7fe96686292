// Package mapiter flags `range` over a map inside the verdict- and
// report-producing packages, machine-checking the repository's
// bit-identical-verdict invariant: every engine, window, shard and
// parallelism setting must produce byte-for-byte identical reports, and
// Go's randomized map iteration order is the classic way that breaks.
// A loop is exempt when it demonstrably feeds a sort (the collected
// keys or values are passed to sort.* / slices.Sort* later in the same
// function — the sorted-after-collect idiom) or when it carries an
// explicit //mtc:nondeterministic-ok annotation whose justification
// explains why order cannot reach a verdict (docs/lint.md).
package mapiter

import (
	"go/ast"
	"go/types"

	"mtc/internal/analysis"
)

// Analyzer is the mapiter rule.
var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc:  "flags nondeterministic map iteration in verdict-producing packages (bit-identical-verdict invariant)",
	Run:  run,
}

// watched lists the packages whose outputs feed verdicts or reports;
// everything a Report, anomaly list, cycle witness or benchmark-gated
// artifact flows through.
var watched = map[string]bool{
	"core": true, "levels": true, "checker": true,
	"shard": true, "history": true, "polygraph": true, "elle": true,
}

// Marker is the suppression annotation.
const Marker = "mtc:nondeterministic-ok"

func run(pass *analysis.Pass) error {
	if !watched[analysis.PkgTail(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if pass.Suppressed(rs.Pos(), Marker) {
				return true
			}
			if feedsSort(enclosingFuncBody(stack), rs, pass.TypesInfo) {
				return true
			}
			pass.Reportf(rs.Pos(), "range over map in verdict-producing package %s: iteration order is randomized; sort the keys first or annotate //%s with a justification",
				analysis.PkgTail(pass.Pkg.Path()), Marker)
			return true
		})
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal on the stack, or nil.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// feedsSort reports whether a variable assigned or appended to inside
// the loop body is later (after the loop, in the same function) passed
// to a sort call — the sorted-after-collect idiom that restores
// determinism before anything order-dependent happens.
func feedsSort(body *ast.BlockStmt, loop *ast.RangeStmt, info *types.Info) bool {
	if body == nil {
		return false
	}
	assigned := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		// Both `x = append(x, ...)` and `x[i] = v` count: the root
		// identifier collects the map's contents either way.
		for {
			switch v := e.(type) {
			case *ast.Ident:
				if obj := info.ObjectOf(v); obj != nil {
					assigned[obj] = true
				}
				return
			case *ast.IndexExpr:
				e = v.X
			case *ast.SelectorExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			default:
				return
			}
		}
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				record(lhs)
			}
		}
		return true
	})
	if len(assigned) == 0 {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < loop.End() {
			return true
		}
		if _, ok := analysis.PkgFuncCall(info, call, "sort", "slices", "maps"); !ok {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && assigned[info.ObjectOf(id)] {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
