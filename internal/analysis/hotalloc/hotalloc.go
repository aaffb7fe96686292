// Package hotalloc makes the allocs/op CI gate explainable at the
// source line: functions annotated //mtc:hotpath promise (near-)zero
// per-item allocation — the columnar index's 9-allocs-per-10k-txn
// derivation contract — and the analyzer flags the constructs that
// quietly break such promises:
//
//   - fmt.* calls (Sprintf and friends allocate their result and box
//     every variadic argument);
//   - map literals and make(map) — per-call map headers;
//   - append into a slice the function declared fresh without capacity
//     (`var s []T` / `s := []T{}`): growth reallocates along the hot
//     loop, where a make([]T, 0, n) would not;
//   - interface boxing at call sites: passing a concrete non-pointer
//     value where the callee takes an interface heap-allocates the
//     value.
//
// A deliberate allocation (a once-per-call arena, a cold error path) is
// annotated //mtc:alloc-ok on its line (docs/lint.md). The hint
// mtc-benchjson -compare prints when the allocs gate trips points
// here.
package hotalloc

import (
	"go/ast"
	"go/types"

	"mtc/internal/analysis"
)

// Analyzer is the hotalloc rule.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation-inducing constructs inside //mtc:hotpath-annotated functions (allocs/op gate)",
	Run:  run,
}

// Markers: the opt-in function annotation and the per-line suppression.
const (
	HotpathMarker = "mtc:hotpath"
	Marker        = "mtc:alloc-ok"
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.FuncAnnotated(fd, HotpathMarker) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	fresh := freshSlices(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !pass.Suppressed(n.Pos(), Marker) {
					pass.Reportf(n.Pos(), "map literal allocates on a //%s function; hoist it out of the hot path or annotate //%s", HotpathMarker, Marker)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, fresh)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, fresh map[types.Object]bool) {
	if pass.Suppressed(call.Pos(), Marker) {
		return
	}
	if name, ok := analysis.PkgFuncCall(pass.TypesInfo, call, "fmt"); ok {
		pass.Reportf(call.Pos(), "fmt.%s allocates (result + boxed arguments) on a //%s function; format off the hot path or annotate //%s", name, HotpathMarker, Marker)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch {
		case id.Name == "make" && len(call.Args) >= 1:
			tv, ok := pass.TypesInfo.Types[call.Args[0]]
			if ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(call.Pos(), "make(map) allocates on a //%s function; reuse a cleared map or annotate //%s", HotpathMarker, Marker)
				}
			}
			return
		case id.Name == "append" && len(call.Args) >= 1:
			if target, ok := rootIdentObj(pass, call.Args[0]); ok && fresh[target] {
				pass.Reportf(call.Pos(), "append into %s, declared without capacity in this function: growth reallocates on a //%s function; preallocate with make(cap) or annotate //%s",
					target.Name(), HotpathMarker, Marker)
			}
			return
		}
	}
	checkBoxing(pass, call)
}

// checkBoxing flags concrete non-pointer-shaped arguments passed to
// interface parameters: the conversion heap-allocates the value.
// Pointer-shaped values (pointers, channels, maps, funcs) fit an
// interface word without allocating and pass clean.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() { // conversions are not calls
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 || call.Ellipsis.IsValid() {
		return // a spread slice is passed as-is, element boxing happened earlier
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if !boxes(at.Type) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes into interface parameter (heap-allocates %s) on a //%s function; take the concrete type or annotate //%s",
			at.Type.String(), HotpathMarker, Marker)
	}
}

// boxes reports whether converting a value of type t to an interface
// allocates: true unless t is itself an interface or pointer-shaped.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() != types.UnsafePointer
	}
	return true
}

// freshSlices collects the slice variables the function declares with
// no capacity: `var s []T`, `s := []T{}`, or `s := make([]T, 0)`.
func freshSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	isSlice := func(t types.Type) bool {
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	noCapacity := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.CompositeLit:
			return len(v.Elts) == 0
		case *ast.CallExpr:
			// make([]T, 0) without a capacity argument.
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) == 2 {
				if lit, ok := v.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
					return true
				}
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil && isSlice(obj.Type()) {
						fresh[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || !isSlice(obj.Type()) {
					continue
				}
				if noCapacity(n.Rhs[i]) {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// rootIdentObj resolves the base identifier of an expression.
func rootIdentObj(pass *analysis.Pass, e ast.Expr) (types.Object, bool) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[v]
			if obj == nil {
				obj = pass.TypesInfo.Defs[v]
			}
			return obj, obj != nil
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil, false
		}
	}
}
