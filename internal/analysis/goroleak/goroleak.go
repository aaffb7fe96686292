// Package goroleak flags `go` statements in the long-lived packages
// (the server, the runner, the shard driver, the graph package, and
// core, whose stream check decodes on a goroutine of its own)
// that have no visible join — the bug class behind the janitor leak,
// where a background goroutine outlived Close and kept touching freed
// state. A spawn passes when the analyzer can see one of:
//
//   - a same-function join: a WaitGroup.Wait, a channel receive, or a
//     range over a channel in the spawning function outside the go
//     statement itself (the shard-driver shape);
//   - a receiver-field signal protocol: the goroutine closes, sends on,
//     or Done()s a field of its receiver, and another method of the
//     same type receives from, ranges over, or Wait()s that field —
//     including through a local alias (`done := s.janitorDone; <-done`);
//   - a receiver-field consume protocol: the goroutine ranges over or
//     receives from a receiver field, and another method close()s that
//     field (the worker-pool shape, workers draining a queue that Close
//     closes).
//
// A goroutine joined some other way is annotated //mtc:goroutine-joined
// naming the join point (docs/lint.md).
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"mtc/internal/analysis"
)

// Analyzer is the goroleak rule.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "flags go statements in long-lived types without a reachable join (WaitGroup.Wait, receive, or close protocol)",
	Run:  run,
}

// watched lists the packages whose types live across requests, and
// core, whose goroutine must not outlive the check that started it.
var watched = map[string]bool{
	"mtcserve": true, "runner": true, "shard": true, "graph": true, "core": true,
}

// Marker is the suppression annotation.
const Marker = "mtc:goroutine-joined"

func run(pass *analysis.Pass) error {
	if !watched[analysis.PkgTail(pass.Pkg.Path())] {
		return nil
	}
	idx := indexMethods(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, idx)
		}
	}
	return nil
}

// typeIndex aggregates, per receiver type, the join evidence visible
// across all of the type's methods.
type typeIndex struct {
	recvFields   map[string]map[string]bool // type → fields received/ranged/Waited somewhere
	closedFields map[string]map[string]bool // type → fields close()d somewhere
	methods      map[string]map[string]*ast.FuncDecl
}

func indexMethods(pass *analysis.Pass) *typeIndex {
	idx := &typeIndex{
		recvFields:   make(map[string]map[string]bool),
		closedFields: make(map[string]map[string]bool),
		methods:      make(map[string]map[string]*ast.FuncDecl),
	}
	mark := func(m map[string]map[string]bool, tname, field string) {
		if m[tname] == nil {
			m[tname] = make(map[string]bool)
		}
		m[tname][field] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			tname, recv := receiverOf(pass, fd)
			if tname == "" {
				continue
			}
			if idx.methods[tname] == nil {
				idx.methods[tname] = make(map[string]*ast.FuncDecl)
			}
			idx.methods[tname][fd.Name.Name] = fd
			aliases := fieldAliases(pass, fd.Body, recv)
			fieldOf := func(e ast.Expr) (string, bool) { return receiverField(pass, e, recv, aliases) }
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						if fld, ok := fieldOf(n.X); ok {
							mark(idx.recvFields, tname, fld)
						}
					}
				case *ast.RangeStmt:
					if fld, ok := fieldOf(n.X); ok {
						mark(idx.recvFields, tname, fld)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						if fld, ok := fieldOf(sel.X); ok && isWaitGroupExpr(pass, sel.X) {
							mark(idx.recvFields, tname, fld)
						}
					}
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
						if fld, ok := fieldOf(n.Args[0]); ok {
							mark(idx.closedFields, tname, fld)
						}
					}
				}
				return true
			})
		}
	}
	return idx
}

// receiverOf returns the receiver's type name and its identifier
// object, unwrapping a pointer receiver.
func receiverOf(pass *analysis.Pass, fd *ast.FuncDecl) (string, types.Object) {
	if len(fd.Recv.List) != 1 {
		return "", nil
	}
	field := fd.Recv.List[0]
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (T[P]) index under the base name.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", nil
	}
	var recv types.Object
	if len(field.Names) == 1 {
		recv = pass.TypesInfo.Defs[field.Names[0]]
	}
	return id.Name, recv
}

// fieldAliases maps local variables assigned directly from a receiver
// field (`done := s.janitorDone`) to that field's name.
func fieldAliases(pass *analysis.Pass, body *ast.BlockStmt, recv types.Object) map[types.Object]string {
	aliases := make(map[types.Object]string)
	if recv == nil {
		return aliases
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			fld, ok := directReceiverField(pass, as.Rhs[i], recv)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				aliases[obj] = fld
			}
		}
		return true
	})
	return aliases
}

// directReceiverField matches `recv.Field` with recv the receiver
// identifier.
func directReceiverField(pass *analysis.Pass, e ast.Expr, recv types.Object) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || recv == nil || pass.TypesInfo.ObjectOf(id) != recv {
		return "", false
	}
	return sel.Sel.Name, true
}

// receiverField resolves e to a receiver field name, directly or
// through a recorded local alias.
func receiverField(pass *analysis.Pass, e ast.Expr, recv types.Object, aliases map[types.Object]string) (string, bool) {
	if fld, ok := directReceiverField(pass, e, recv); ok {
		return fld, true
	}
	if id, ok := e.(*ast.Ident); ok {
		if fld, ok := aliases[pass.TypesInfo.ObjectOf(id)]; ok {
			return fld, true
		}
	}
	return "", false
}

func isWaitGroupExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && analysis.IsWaitGroupType(tv.Type)
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, idx *typeIndex) {
	tname, recv := "", types.Object(nil)
	if fd.Recv != nil {
		tname, recv = receiverOf(pass, fd)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if pass.Suppressed(gs.Pos(), Marker) {
			return true
		}
		if sameFunctionJoin(pass, fd.Body, gs) {
			return true
		}
		if tname != "" && fieldProtocolJoin(pass, gs, fd, tname, recv, idx) {
			return true
		}
		pass.Reportf(gs.Pos(), "goroutine in long-lived package has no visible join: no WaitGroup.Wait, channel receive, or close protocol reaches it; join it on the shutdown path or annotate //%s naming the join point", Marker)
		return true
	})
}

// sameFunctionJoin looks for join evidence in the spawning function
// outside the go statement's own subtree.
func sameFunctionJoin(pass *analysis.Pass, body *ast.BlockStmt, gs *ast.GoStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == ast.Node(gs) {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isChanExpr(pass, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isChanExpr(pass, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && isWaitGroupExpr(pass, sel.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isChanExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// fieldProtocolJoin checks the receiver-field protocols for a go
// statement inside a method of tname. The goroutine body is the go
// statement's function literal, or — for `go s.method()` — that
// method's own body (with its own receiver).
func fieldProtocolJoin(pass *analysis.Pass, gs *ast.GoStmt, fd *ast.FuncDecl, tname string, recv types.Object, idx *typeIndex) bool {
	body, bodyRecv := spawnBody(pass, gs, fd, tname, recv, idx)
	if body == nil {
		return false
	}
	aliases := fieldAliases(pass, body, bodyRecv)
	signaled, consumed := make(map[string]bool), make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if fld, ok := receiverField(pass, n.Chan, bodyRecv, aliases); ok {
				signaled[fld] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if fld, ok := receiverField(pass, n.X, bodyRecv, aliases); ok {
					consumed[fld] = true
				}
			}
		case *ast.RangeStmt:
			if fld, ok := receiverField(pass, n.X, bodyRecv, aliases); ok {
				consumed[fld] = true
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" && len(n.Args) == 1 {
					if fld, ok := receiverField(pass, n.Args[0], bodyRecv, aliases); ok {
						signaled[fld] = true
					}
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" && isWaitGroupExpr(pass, fun.X) {
					if fld, ok := receiverField(pass, fun.X, bodyRecv, aliases); ok {
						signaled[fld] = true
					}
				}
			}
		}
		return true
	})
	for fld := range signaled {
		if idx.recvFields[tname][fld] {
			return true
		}
	}
	for fld := range consumed {
		if idx.closedFields[tname][fld] {
			return true
		}
	}
	return false
}

// spawnBody resolves the goroutine's body and the receiver object its
// field accesses resolve against.
func spawnBody(pass *analysis.Pass, gs *ast.GoStmt, fd *ast.FuncDecl, tname string, recv types.Object, idx *typeIndex) (*ast.BlockStmt, types.Object) {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		// The literal closes over the spawning method's receiver.
		return fun.Body, recv
	case *ast.SelectorExpr:
		// go s.method(): analyze the named method's body against its
		// own receiver, provided s is the receiver of this method.
		if _, ok := directReceiverField(pass, fun, recv); !ok {
			return nil, nil
		}
		m := idx.methods[tname][fun.Sel.Name]
		if m == nil || m.Body == nil {
			return nil, nil
		}
		_, mrecv := receiverOf(pass, m)
		return m.Body, mrecv
	}
	return nil, nil
}
