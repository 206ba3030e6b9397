package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// closecheck: a Close/Flush/Sync error on a writable file, buffered writer,
// or network conn is the moment the OS tells you buffered bytes were lost —
// exactly the durability a model-management store must not gamble away
// (paper Sec. 3: saved snapshots/updates are the recovery source of truth).
// Discarding that error (`defer f.Close()`, `_ = w.Flush()`) on a writable
// handle is flagged. Closes of handles opened with os.Open (read-only) are
// exempt: nothing buffered can be lost.
const nameCloseCheck = "closecheck"

var closeCheckAnalyzer = &Analyzer{
	Name: nameCloseCheck,
	Doc:  "discarded error from Close/Flush/Sync on a writable file or conn; obs spans started but never ended",
	Run:  runCloseCheck,
}

func runCloseCheck(_ *Program, p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		out = append(out, spanCheckFile(p, file)...)
		readonly := readonlyHandles(p, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			kind := ""
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
				kind = "discarded"
			case *ast.DeferStmt:
				call = st.Call
				kind = "discarded by defer"
			case *ast.GoStmt:
				call = st.Call
				kind = "discarded in goroutine"
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 || !allBlank(st.Lhs) {
					return true
				}
				call, _ = st.Rhs[0].(*ast.CallExpr)
				kind = "explicitly discarded"
			default:
				return true
			}
			if call == nil {
				return true
			}
			sel, method := closeLikeCall(p, call)
			if sel == nil {
				return true
			}
			recvType := p.Info.TypeOf(sel.X)
			if recvType == nil || !implementsWriter(recvType) {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil && readonly[obj] {
					return true
				}
			}
			out = append(out, p.findingAt(call.Pos(), nameCloseCheck,
				"%s error %s on writable %s; a failed %s can lose buffered writes — check or propagate it",
				method, kind, types.TypeString(recvType, nil), method))
			return true
		})
	}
	return out
}

// closeLikeCall returns the selector and method name if call is an
// argument-less Close/Flush/Sync method returning exactly one error.
func closeLikeCall(p *Package, call *ast.CallExpr) (*ast.SelectorExpr, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil, ""
	}
	name := sel.Sel.Name
	if name != "Close" && name != "Flush" && name != "Sync" {
		return nil, ""
	}
	selection, ok := p.Info.Selections[sel]
	if !ok {
		return nil, "" // qualified call like pkg.Close, not a method
	}
	sig, ok := selection.Obj().Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || !isErrorType(sig.Results().At(0).Type()) {
		return nil, ""
	}
	return sel, name
}

// readonlyHandles collects objects assigned from os.Open / os.OpenFile with
// O_RDONLY-looking call sites. Closing a read-only handle cannot lose data,
// so closecheck leaves `defer f.Close()` on them alone.
func readonlyHandles(p *Package, file *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := p.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || fn.Name() != "Open" {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if obj := p.Info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := p.Info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) >= 1 {
				record(st.Lhs[0], st.Rhs[0])
			}
		case *ast.ValueSpec:
			if len(st.Values) == 1 && len(st.Names) >= 1 {
				record(st.Names[0], st.Values[0])
			}
		}
		return true
	})
	return out
}

// spanCheckFile is the span half of closecheck: End() is what records a
// span with its tracer, so an *obs.Span that is started but never ended
// silently drops itself — and its place in the tree — from the trace
// file. Every span variable assigned from a call must have a lexical
// End() or EndAfter(d) call somewhere in the enclosing function (closure
// bodies count).
// Spans that escape the function — returned, passed to another call,
// aliased, stored in a composite literal, sent on a channel, or address-
// taken — are the recipient's responsibility and are skipped.
func spanCheckFile(p *Package, file *ast.File) []Finding {
	var out []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		started := map[types.Object]*ast.Ident{}
		ended := map[types.Object]bool{}
		escaped := map[types.Object]bool{}
		spanObj := func(e ast.Expr) types.Object {
			id, ok := e.(*ast.Ident)
			if !ok {
				return nil
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				obj = p.Info.Defs[id]
			}
			if obj == nil || !isObsSpanPtr(obj.Type()) {
				return nil
			}
			return obj
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				// Aliasing a span (s2 := sp) makes its liveness non-lexical;
				// a blank discard (_ = sp) aliases nothing.
				if !allBlank(st.Lhs) {
					for _, r := range st.Rhs {
						if obj := spanObj(r); obj != nil {
							escaped[obj] = true
						}
					}
				}
				hasCall := false
				for _, r := range st.Rhs {
					if _, ok := r.(*ast.CallExpr); ok {
						hasCall = true
					}
				}
				if !hasCall {
					return true
				}
				for _, l := range st.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj != nil && isObsSpanPtr(obj.Type()) {
						if _, seen := started[obj]; !seen {
							started[obj] = id
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := st.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "End" && len(st.Args) == 0 || sel.Sel.Name == "EndAfter" && len(st.Args) == 1) {
					if obj := spanObj(sel.X); obj != nil {
						ended[obj] = true
					}
				}
				for _, a := range st.Args {
					if obj := spanObj(a); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range st.Results {
					if obj := spanObj(r); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.CompositeLit:
				for _, e := range st.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if obj := spanObj(e); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.SendStmt:
				if obj := spanObj(st.Value); obj != nil {
					escaped[obj] = true
				}
			case *ast.UnaryExpr:
				if st.Op == token.AND {
					if obj := spanObj(st.X); obj != nil {
						escaped[obj] = true
					}
				}
			}
			return true
		})
		for obj, id := range started {
			if ended[obj] || escaped[obj] {
				continue
			}
			out = append(out, p.findingAt(id.Pos(), nameCloseCheck,
				"span %q is started but never ended; End() is what records a span, so this one drops out of the trace — call %s.End() on every path",
				obj.Name(), obj.Name()))
		}
	}
	return out
}

// isObsSpanPtr reports whether t is *Span from a package whose import
// path ends in "obs" (the real tracing package or a fixture stand-in).
func isObsSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil && pathHasSuffixSegments(obj.Pkg().Path(), "obs")
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}
