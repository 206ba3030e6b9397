package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one mmlint pass over a type-checked package. Run receives the
// whole analyzed Program so interprocedural analyzers can follow the shared
// call graph, but must only report findings anchored in p.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, p *Package) []Finding
}

var analyzers = []*Analyzer{
	mapRangeAnalyzer,
	closeCheckAnalyzer,
	panicFreeAnalyzer,
	nakedGoroutineAnalyzer,
	hashPurityAnalyzer,
	deadlineCheckAnalyzer,
	lockHeldAnalyzer,
	boundedGoAnalyzer,
	dataEscapeAnalyzer,
}

// nameDeadIgnore is the pseudo-analyzer that reports //mmlint:ignore
// directives matching no finding. It is not a valid directive target: a dead
// suppression must be deleted, not suppressed in turn.
const nameDeadIgnore = "deadignore"

// analyzerNames returns the names a //mmlint:ignore directive may target.
func analyzerNames() map[string]bool {
	names := map[string]bool{"all": true}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// selectableNames returns the names -only/-skip accept.
func selectableNames() map[string]bool {
	names := map[string]bool{nameDeadIgnore: true}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// allEnabled returns the default analyzer selection: everything on.
func allEnabled() map[string]bool {
	return selectableNames()
}

// findingAt builds a Finding anchored at pos.
func (p *Package) findingAt(pos token.Pos, analyzer, format string, args ...any) Finding {
	position := p.Fset.Position(pos)
	return Finding{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// runPackage runs the enabled analyzers on p, one after another, and
// applies //mmlint:ignore suppressions. Malformed directives are reported
// as findings themselves (analyzer "mmlint") so a typo cannot silently
// disable a gate; well-formed directives that suppress nothing are reported
// as deadignore findings so stale suppressions cannot accumulate.
func runPackage(prog *Program, p *Package, enabled map[string]bool) []Finding {
	dirs, bad := p.directives()
	var raw []Finding
	for _, a := range analyzers {
		if enabled[a.Name] {
			raw = append(raw, a.Run(prog, p)...)
		}
	}
	sortFindings(raw)

	used := make([]bool, len(dirs))
	var out []Finding
	for _, f := range raw {
		hit := false
		for i := range dirs {
			if dirs[i].covers(f) {
				used[i] = true
				hit = true
			}
		}
		if !hit {
			out = append(out, f)
		}
	}
	out = append(out, bad...)
	if enabled[nameDeadIgnore] {
		for i := range dirs {
			if used[i] || !dirs[i].judgeable(enabled) {
				continue
			}
			out = append(out, p.findingAt(dirs[i].pos, nameDeadIgnore,
				"//mmlint:ignore %s directive suppresses nothing; the finding it silenced is gone — delete the directive",
				strings.Join(dirs[i].nameList(), ",")))
		}
	}
	return out
}

// directive is one parsed //mmlint:ignore comment.
type directive struct {
	pos    token.Pos
	file   string
	line   int
	names  map[string]bool
	reason string
}

// covers reports whether the directive sits on the finding's line, or the
// line directly above it, and names the finding's analyzer (or "all").
func (d *directive) covers(f Finding) bool {
	if d.file != f.File {
		return false
	}
	if d.line != f.Line && d.line != f.Line-1 {
		return false
	}
	return d.names["all"] || d.names[f.Analyzer]
}

// judgeable reports whether the directive can fairly be declared dead under
// the current analyzer selection: every analyzer it names must have run
// (an "all" directive needs the full set). Otherwise the directive may be
// covering a finding a skipped analyzer would have produced.
func (d *directive) judgeable(enabled map[string]bool) bool {
	if d.names["all"] {
		for _, a := range analyzers {
			if !enabled[a.Name] {
				return false
			}
		}
		return true
	}
	for n := range d.names {
		if !enabled[n] {
			return false
		}
	}
	return true
}

// nameList returns the directive's analyzer names, sorted.
func (d *directive) nameList() []string {
	var out []string
	for n := range d.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// directives parses (once) all //mmlint:ignore comments of the package.
// The accepted form is
//
//	//mmlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the offending line or on the line directly above it.
// <analyzer> may be "all". The reason is mandatory: a suppression without a
// recorded justification is itself a finding.
func (p *Package) directives() ([]directive, []Finding) {
	p.dirOnce.Do(func() {
		known := analyzerNames()
		for _, file := range p.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "mmlint:ignore") {
						continue
					}
					rest := strings.TrimPrefix(text, "mmlint:ignore")
					fields := strings.Fields(rest)
					pos := p.Fset.Position(c.Pos())
					if len(fields) == 0 {
						p.dirBad = append(p.dirBad, p.findingAt(c.Pos(), "mmlint",
							"malformed directive: want //mmlint:ignore <analyzer> <reason>"))
						continue
					}
					names := map[string]bool{}
					ok := true
					for _, n := range strings.Split(fields[0], ",") {
						if !known[n] {
							p.dirBad = append(p.dirBad, p.findingAt(c.Pos(), "mmlint",
								"unknown analyzer %q in //mmlint:ignore directive", n))
							ok = false
							break
						}
						names[n] = true
					}
					if !ok {
						continue
					}
					if len(fields) < 2 {
						p.dirBad = append(p.dirBad, p.findingAt(c.Pos(), "mmlint",
							"//mmlint:ignore directive needs a reason"))
						continue
					}
					p.dirs = append(p.dirs, directive{
						pos:    c.Pos(),
						file:   pos.Filename,
						line:   pos.Line,
						names:  names,
						reason: strings.Join(fields[1:], " "),
					})
				}
			}
		}
	})
	return p.dirs, p.dirBad
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared type helpers ----

// lookupMethod finds the method name in the method set of t (including the
// pointer method set for addressable receivers).
func lookupMethod(t types.Type, name string) *types.Func {
	if t == nil {
		return nil
	}
	recv := t
	if _, isPtr := recv.(*types.Pointer); !isPtr && !types.IsInterface(recv) {
		recv = types.NewPointer(recv)
	}
	obj, _, _ := types.LookupFieldOrMethod(recv, true, nil, name)
	fn, _ := obj.(*types.Func)
	return fn
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// implementsWriter reports whether t has a Write([]byte) (int, error)
// method — the signal mmlint uses for "writable" receivers (files opened
// for writing, buffered writers, network conns, hash states).
func implementsWriter(t types.Type) bool {
	fn := lookupMethod(t, "Write")
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	if !isByteSlice(sig.Params().At(0).Type()) {
		return false
	}
	r0, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || r0.Kind() != types.Int {
		return false
	}
	return isErrorType(sig.Results().At(1).Type())
}

// implementsHash reports whether t satisfies hash.Hash structurally
// (Write + Sum + Reset + Size + BlockSize).
func implementsHash(t types.Type) bool {
	if !implementsWriter(t) {
		return false
	}
	for _, m := range []string{"Sum", "Reset", "Size", "BlockSize"} {
		if lookupMethod(t, m) == nil {
			return false
		}
	}
	return true
}

// pathHasSegment reports whether importPath contains seg as a whole
// slash-separated element ("repro/internal/docdb" has segment "docdb").
func pathHasSegment(importPath, seg string) bool {
	for _, s := range strings.Split(importPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// pathHasSuffixSegments reports whether importPath ends with the given
// consecutive segments ("repro/internal/nn" ends with "internal", "nn").
func pathHasSuffixSegments(importPath string, segs ...string) bool {
	parts := strings.Split(importPath, "/")
	if len(parts) < len(segs) {
		return false
	}
	tail := parts[len(parts)-len(segs):]
	for i := range segs {
		if tail[i] != segs[i] {
			return false
		}
	}
	return true
}

// funcDecls maps each declared function/method object to its declaration,
// letting analyzers peek into same-package callee bodies.
func (p *Package) funcDecls() map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// calleeFunc resolves the *types.Func a call expression invokes, through
// either a selector (method or qualified function) or a plain identifier.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}
