package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// panicfree: library packages in this repo must surface failures as errors
// so that a bad save/recover aborts one request, not the whole model server.
// panic() is allowed only in internal/nn and internal/tensor, where shape
// mismatches are programming errors on the training hot path (the same
// contract PyTorch has for shape asserts), and in package main binaries.
//
// v2 is interprocedural: besides flagging panic sites directly, the analyzer
// follows the call graph and flags cross-package calls into functions whose
// panics can escape (no recover on the way, not allowlisted, not covered by
// a suppression at the panic site). A suppressed panic is a recorded local
// contract — "this cannot fire" — and therefore does not taint callers.
const namePanicFree = "panicfree"

var panicFreeAnalyzer = &Analyzer{
	Name: namePanicFree,
	Doc:  "panic outside the internal/nn, internal/tensor allowlist, or a call that lets one escape",
	Run:  runPanicFree,
}

// panicAllowlisted reports whether the import path is sanctioned for
// panics: the tensor/nn shape-check hot paths.
func panicAllowlisted(path string) bool {
	return pathHasSuffixSegments(path, "internal", "nn") ||
		pathHasSuffixSegments(path, "internal", "tensor")
}

func runPanicFree(prog *Program, p *Package) []Finding {
	if p.Pkg.Name() == "main" || panicAllowlisted(p.ImportPath) {
		return nil
	}
	var out []Finding
	// Direct panic sites, from the raw AST: every panic in this package is
	// reported (and possibly suppressed by its own directive) regardless of
	// what the call graph thinks.
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if obj, ok := p.Info.Uses[id].(*types.Builtin); !ok || obj.Name() != "panic" {
				return true
			}
			out = append(out, p.findingAt(call.Pos(), namePanicFree,
				"panic in library package %s; return an error instead (only internal/nn and internal/tensor shape checks may panic)",
				p.ImportPath))
			return true
		})
	}
	// Cross-package calls into functions whose panics escape. Same-package
	// escapes are not re-reported: the panic site itself is already the
	// finding there, and the fix is local.
	for _, f := range p.fns {
		if f.recovers {
			continue // this caller converts panics to errors itself
		}
		for _, cs := range f.calls {
			if cs.async || cs.iface {
				continue
			}
			callee := prog.fns[cs.id]
			if callee == nil || callee.pkg == p {
				continue
			}
			w := prog.panics[cs.id]
			if w == nil {
				continue
			}
			where := "panic at " + p.position(w.pos)
			if hops := prog.path(prog.panics, cs.id, 5); len(hops) > 0 {
				where += " via " + strings.Join(hops, " → ")
			}
			out = append(out, p.findingAt(cs.pos, namePanicFree,
				"call to %s can panic (%s); recover, or have it return an error",
				prog.shortID(cs.id), where))
		}
	}
	return out
}
