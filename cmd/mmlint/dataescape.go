package main

import (
	"go/ast"
	"go/types"
)

// dataescape: a save re-hashes only the tensors written since their last
// save, and it knows what was written because every write path bumps the
// tensor's generation first. Outside package tensor that path is Data(),
// which bumps before it hands out the slice — so a write through the slice
// is seen only if it happens before the next save. A slice kept where it
// outlives the function that took it (a field, a map or slice element, a
// package variable, a channel, a return value, a goroutine) can be written
// after a save stamped the tensor, and the next save would store the stamp
// instead of the new bytes: a wrong model that verifies. The analyzer
// follows a Data() result through plain local assignments, reslices and
// appends onto it, and flags every store of one into those places. A
// Data() slice passed as an ordinary call argument is the callee's local
// and is not followed.
const nameDataEscape = "dataescape"

var dataEscapeAnalyzer = &Analyzer{
	Name: nameDataEscape,
	Doc:  "tensor Data() slice stored where it outlives its function (field, container, package variable, channel, return, goroutine)",
	Run:  runDataEscape,
}

func runDataEscape(_ *Program, p *Package) []Finding {
	if pathHasSuffixSegments(p.ImportPath, "tensor") {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, p.dataEscapes(fd.Body)...)
			}
		}
	}
	return out
}

// escapes is the state of one function body's analysis: the locals known
// to hold a Data() slice, and the findings so far.
type escapes struct {
	p       *Package
	tainted map[types.Object]bool
	out     []Finding
}

func (p *Package) dataEscapes(body *ast.BlockStmt) []Finding {
	e := &escapes{p: p, tainted: map[types.Object]bool{}}
	// Propagate through local assignments until nothing changes; a
	// function body is small, and each round only adds.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && e.isTainted(n.Rhs[i]) {
						if obj := e.local(id); obj != nil && !e.tainted[obj] {
							e.tainted[obj], changed = true, true
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && e.isTainted(v) {
						if obj := p.Info.Defs[n.Names[i]]; obj != nil && !e.tainted[obj] {
							e.tainted[obj], changed = true, true
						}
					}
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if e.isTainted(n.Rhs[i]) {
						e.checkStore(lhs, n.Rhs[i])
					}
				}
			}
		case *ast.CompositeLit:
			e.checkLiteral(n)
		case *ast.CallExpr:
			if e.isBuiltin(n, "append") {
				for _, arg := range n.Args[1:] {
					if e.isTainted(arg) {
						e.report(arg, "a slice element (append)")
					}
				}
			}
		case *ast.SendStmt:
			if e.isTainted(n.Value) {
				e.report(n.Value, "a channel")
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if e.isTainted(r) {
					e.report(r, "a return value")
				}
			}
		case *ast.GoStmt:
			e.checkGo(n)
		}
		return true
	})
	return e.out
}

// local resolves an assigned identifier to a variable declared inside a
// function, or nil (package variables are sinks, not locals).
func (e *escapes) local(id *ast.Ident) types.Object {
	obj := e.p.Info.Defs[id]
	if obj == nil {
		obj = e.p.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == e.p.Pkg.Scope() {
		return nil
	}
	return v
}

// isTainted reports whether x evaluates to a Data() slice or an alias of
// one: the call itself, a local holding one, a reslice, or an append onto
// one.
func (e *escapes) isTainted(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.ParenExpr:
		return e.isTainted(x.X)
	case *ast.SliceExpr:
		return e.isTainted(x.X)
	case *ast.Ident:
		obj := e.p.Info.Uses[x]
		return obj != nil && e.tainted[obj]
	case *ast.CallExpr:
		if e.isBuiltin(x, "append") {
			return len(x.Args) > 0 && e.isTainted(x.Args[0])
		}
		return e.isDataCall(x)
	}
	return false
}

// isDataCall reports whether call is Data() on a package tensor's Tensor.
func (e *escapes) isDataCall(call *ast.CallExpr) bool {
	fn := e.p.calleeFunc(call)
	if fn == nil || fn.Name() != "Data" || fn.Pkg() == nil || !pathHasSuffixSegments(fn.Pkg().Path(), "tensor") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Tensor"
}

func (e *escapes) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = e.p.Info.Uses[id].(*types.Builtin)
	return ok
}

// checkStore flags an assignment of a Data() slice to a field, a map or
// slice element, or a package variable.
func (e *escapes) checkStore(lhs, rhs ast.Expr) {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := e.p.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			e.report(rhs, "field "+lhs.Sel.Name)
		} else if v, ok := e.p.Info.Uses[lhs.Sel].(*types.Var); ok && !v.IsField() {
			e.report(rhs, "package variable "+lhs.Sel.Name) // another package's
		}
	case *ast.IndexExpr:
		e.report(rhs, "a map or slice element")
	case *ast.Ident:
		if v, ok := e.p.Info.Uses[lhs].(*types.Var); ok && v.Parent() == e.p.Pkg.Scope() {
			e.report(rhs, "package variable "+lhs.Name)
		}
	}
}

// checkLiteral flags a Data() slice placed in a composite literal: a
// struct field, or a slice, array or map element.
func (e *escapes) checkLiteral(lit *ast.CompositeLit) {
	_, isStruct := e.p.Info.TypeOf(lit).Underlying().(*types.Struct)
	for _, elt := range lit.Elts {
		val, field := elt, ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok && isStruct {
				field = id.Name
			}
		}
		if !e.isTainted(val) {
			continue
		}
		switch {
		case field != "":
			e.report(val, "composite-literal field "+field)
		case isStruct:
			e.report(val, "a composite-literal field")
		default:
			e.report(val, "a composite-literal element")
		}
	}
}

// checkGo flags a Data() slice handed to a goroutine: as an argument of
// the go call, or captured by the go statement's function literal.
func (e *escapes) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if e.isTainted(arg) {
			e.report(arg, "a goroutine argument")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := e.p.Info.Uses[id]; obj != nil && e.tainted[obj] && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			e.report(id, "a goroutine's closure ("+id.Name+")")
		}
		return true
	})
}

func (e *escapes) report(at ast.Expr, where string) {
	e.out = append(e.out, e.p.findingAt(at.Pos(), nameDataEscape,
		"tensor Data() slice escapes into %s; a write through it after the next save would hide behind the tensor's stamp — keep it in a local of the function that took it", where))
}
