package main

// The cross-package call-graph layer shared by the interprocedural
// analyzers (hashpurity, lockheld, deadlinecheck, boundedgo, panicfree).
//
// Identity: a function is identified by types.Func.FullName() of its
// generic origin, the text every message prints.
//
// Facts: every declared function gets one funcFacts record — its resolved
// outgoing calls plus the locally detectable events the analyzers care
// about (nondeterminism sources, blocking operations, unsuppressed panics,
// net.Conn reads/writes, deadline arms). Facts are computed once per
// package on the internal/par pool and kept on the Program; every analyzer
// then reads the same graph instead of re-walking the ASTs.
//
// Calls: static calls resolve to their callee directly. A call through an
// interface method declared in this module is over-approximated by the
// method set: it may reach every analyzed named type whose pointer
// implements the interface (types.Implements: the loader checks the whole
// module from source, so one interface is one object). Dispatch through a
// standard-library interface (io.Writer, most prominently) is deliberately
// not expanded — the digest path writes *through* io.Writer, and what the
// destination does with the bytes can change neither the bytes nor the
// caller's locks. Calls through plain function values are invisible to the
// graph (documented limitation).
//
// Propagation: the interprocedural rules are one breadth-first pass each
// (propagate) over the resolved calls — hashpurity forward from the digest
// entry points, lockheld and panicfree backward from the functions that
// block or panic — run once in buildProgram.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/par"
)

// FuncID is the stable cross-package identity of a function: the FullName
// of its generic origin.
type FuncID = string

func funcID(fn *types.Func) FuncID {
	if fn == nil {
		return ""
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// callSite is one resolved outgoing call.
type callSite struct {
	callee *types.Func
	id     FuncID
	pos    token.Pos
	// iface marks dynamic dispatch through an interface method; the graph
	// expands it over the analyzed method sets when the interface is
	// declared in this module.
	iface bool
	// targets are the analyzed functions the call may reach: the static
	// callee, or the implementations an interface call dispatches to.
	targets []FuncID
	// async marks calls made from a go-launched function literal (or the
	// call a go statement itself launches): they run concurrently, so they
	// do not block the spawning function and their panics do not unwind
	// into it.
	async bool
}

// factPos is one locally detected event inside a function body.
type factPos struct {
	pos   token.Pos
	desc  string
	async bool
}

// funcFacts is the per-function record the interprocedural analyzers
// share.
type funcFacts struct {
	id   FuncID
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	calls []callSite
	// nondet lists nondeterminism sources: wall-clock reads, math/rand,
	// environment reads, pointer formatting, order-dependent map ranges.
	nondet []factPos
	// blocking lists directly blocking operations: sleeps, channel ops,
	// WaitGroup/Cond waits, file I/O, dials.
	blocking []factPos
	// connIO lists net.Conn reads/writes — direct Read/Write calls and
	// conns handed to callees that can only read or write them (io.Reader
	// or io.Writer parameters, which cannot arm a deadline).
	connIO []factPos
	// deadlines lists SetDeadline/SetReadDeadline/SetWriteDeadline calls.
	deadlines []token.Pos
	// connReaders holds the local variables that wrap a net.Conn in a
	// reader or writer (br := bufio.NewReaderSize(conn, n)): reads and
	// writes through them are conn I/O, and building them is not.
	connReaders map[types.Object]bool
	// panics lists panic sites not covered by a //mmlint:ignore panicfree
	// directive (suppressed panics are a recorded local contract and do
	// not taint callers).
	panics []factPos
	// recovers reports a recover() anywhere in the body: panics do not
	// escape this function.
	recovers bool
}

// Program is the analyzed package set plus the shared call graph and the
// whole-program facts propagated along it.
type Program struct {
	pkgs       []*Package
	modulePath string
	fns        map[FuncID]*funcFacts
	ids        []FuncID // the keys of fns, sorted

	// What the interprocedural rules propagate: the functions reachable
	// from a digest entry point, those whose call can block, and those that
	// let a panic escape.
	digest, blocking, panics map[FuncID]*witness
}

func (prog *Program) inModule(path string) bool {
	return path == prog.modulePath || strings.HasPrefix(path, prog.modulePath+"/")
}

// shortID renders a FuncID without the module prefix for messages.
func (prog *Program) shortID(id FuncID) string {
	id = strings.ReplaceAll(id, prog.modulePath+"/", "")
	return strings.ReplaceAll(id, prog.modulePath+".", "")
}

// position renders a pos as "file.go:line" for message text (finding
// anchors carry full paths; in-message references stay short). Every
// package shares the loader's one FileSet, so any package renders any pos.
func (p *Package) position(pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}

// buildProgram computes per-package facts on the internal/par pool,
// resolves every call site and propagates the interprocedural facts.
func buildProgram(pkgs []*Package, modulePath string) *Program {
	prog := &Program{pkgs: pkgs, modulePath: modulePath, fns: make(map[FuncID]*funcFacts)}
	_ = par.For(len(pkgs), runtime.GOMAXPROCS(0), func(i int) error {
		pkgs[i].fns = pkgs[i].buildFacts()
		return nil
	})
	for _, p := range pkgs {
		for _, f := range p.fns {
			prog.fns[f.id] = f
		}
	}
	for id := range prog.fns {
		prog.ids = append(prog.ids, id)
	}
	sort.Strings(prog.ids)
	prog.resolveCalls()

	digest := map[FuncID]*witness{}
	blocking := map[FuncID]*witness{}
	panics := map[FuncID]*witness{}
	for id, f := range prog.fns {
		if isDigestEntry(f) {
			digest[id] = &witness{}
		}
		if op := firstSyncFact(append(append([]factPos{}, f.blocking...), f.connIO...)); op != nil {
			blocking[id] = &witness{desc: op.desc, pos: op.pos}
		}
		if !panicAllowlisted(f.pkg.ImportPath) && !f.recovers && len(f.panics) > 0 {
			panics[id] = &witness{pos: f.panics[0].pos}
		}
	}
	prog.digest = prog.propagate(digest, true, func(*funcFacts, callSite) bool { return true })
	// A spawned goroutine's waiting does not block its spawner.
	prog.blocking = prog.propagate(blocking, false, func(_ *funcFacts, cs callSite) bool { return !cs.async })
	// A panic escapes through synchronous static calls, unless the caller
	// recovers or is allowed to panic itself.
	prog.panics = prog.propagate(panics, false, func(f *funcFacts, cs callSite) bool {
		return !cs.async && !cs.iface && !f.recovers && !panicAllowlisted(f.pkg.ImportPath)
	})
	return prog
}

// resolveCalls sets every call site's targets: the static callee, or — for
// dispatch through a module-declared interface — the method of that name
// of every analyzed named type whose pointer implements the interface.
func (prog *Program) resolveCalls() {
	var named []types.Type
	for _, p := range prog.pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, types.NewPointer(tn.Type()))
			}
		}
	}
	impl := map[FuncID][]FuncID{}
	implementers := func(fn *types.Func) []FuncID {
		id := funcID(fn)
		if out, ok := impl[id]; ok {
			return out
		}
		var out []FuncID
		iface, _ := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, t := range named {
			if iface == nil || !types.Implements(t, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				out = append(out, funcID(m))
			}
		}
		sort.Strings(out)
		impl[id] = out
		return out
	}
	for _, p := range prog.pkgs {
		for _, f := range p.fns {
			for i := range f.calls {
				cs := &f.calls[i]
				switch {
				case !cs.iface:
					cs.targets = []FuncID{cs.id}
				case cs.callee.Pkg() != nil && prog.inModule(cs.callee.Pkg().Path()):
					cs.targets = implementers(cs.callee)
				}
			}
		}
	}
}

// ---- per-package fact extraction ----

func (p *Package) buildFacts() []*funcFacts {
	var out []*funcFacts
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			f := &funcFacts{id: funcID(fn), fn: fn, pkg: p, decl: fd}
			p.walkFacts(f, fd.Body, false)
			out = append(out, f)
		}
	}
	return out
}

// walkFacts records the call sites and local events in body. async marks
// code launched on another goroutine by an enclosing go statement.
func (p *Package) walkFacts(f *funcFacts, body ast.Node, async bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Arguments are evaluated synchronously; the launched call
			// (and a launched literal's body) runs concurrently.
			for _, arg := range n.Call.Args {
				p.walkFacts(f, arg, async)
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				p.walkFacts(f, lit.Body, true)
			} else {
				p.recordCall(f, n.Call, true)
			}
			return false
		case *ast.CallExpr:
			p.recordCall(f, n, async)
			return true
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					p.noteConnWrapper(f, n.Lhs[i], rhs)
				}
			}
			return true
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, v := range n.Values {
					p.noteConnWrapper(f, n.Names[i], v)
				}
			}
			return true
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if !(n.Value == nil && isKeyCollectionLoop(p, n.Body)) {
						f.nondet = append(f.nondet, factPos{n.Pos(), "iterates a map in randomized order", async})
					}
				}
			}
			return true
		case *ast.SendStmt:
			f.blocking = append(f.blocking, factPos{n.Pos(), "a channel send", async})
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				f.blocking = append(f.blocking, factPos{n.Pos(), "a channel receive", async})
			}
			return true
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				f.blocking = append(f.blocking, factPos{n.Pos(), "a select with no default", async})
			}
			return true
		}
		return true
	})
}

// recordCall resolves and classifies one call expression.
func (p *Package) recordCall(f *funcFacts, call *ast.CallExpr, async bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				if !p.panicSuppressed(call.Pos()) {
					f.panics = append(f.panics, factPos{call.Pos(), "panic", async})
				}
			case "recover":
				f.recovers = true
			}
			return
		}
	}
	if fn := p.calleeFunc(call); fn != nil {
		site := callSite{callee: fn, id: funcID(fn), pos: call.Pos(), async: async}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			site.iface = true
		}
		f.calls = append(f.calls, site)
		p.classifyCall(f, call, fn, async)
	}
	p.classifyConnArgs(f, call, async)
}

// panicSuppressed reports whether a //mmlint:ignore panicfree directive
// covers pos: the panic is a recorded local contract (e.g. "crypto/rand
// never fails") and must not taint callers through the graph.
func (p *Package) panicSuppressed(pos token.Pos) bool {
	dirs, _ := p.directives()
	position := p.Fset.Position(pos)
	for _, d := range dirs {
		if d.file != position.Filename {
			continue
		}
		if (d.line == position.Line || d.line == position.Line-1) && (d.names["all"] || d.names[namePanicFree]) {
			return true
		}
	}
	return false
}

var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirAll": true,
	"Mkdir": true, "MkdirTemp": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Truncate": true, "Link": true, "Symlink": true,
}

var fileBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "Sync": true, "Seek": true,
	"WriteString": true, "Readdirnames": true, "ReadDir": true,
}

// classifyCall records the analyzer-relevant patterns a resolved call
// matches: nondeterminism sources, blocking operations, net.Conn method
// I/O, and deadline arms.
func (p *Package) classifyCall(f *funcFacts, call *ast.CallExpr, fn *types.Func, async bool) {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	recv := func() types.Type {
		if sig == nil || sig.Recv() == nil {
			return nil
		}
		return sig.Recv().Type()
	}

	// Nondeterminism sources (hashpurity).
	switch {
	case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
		f.nondet = append(f.nondet, factPos{call.Pos(), "reads the wall clock (time." + name + ")", async})
	case pkg == "math/rand" || pkg == "math/rand/v2":
		f.nondet = append(f.nondet, factPos{call.Pos(), "draws from " + pkg + " (" + name + ")", async})
	case pkg == "os" && (name == "Getenv" || name == "LookupEnv" || name == "Environ"):
		f.nondet = append(f.nondet, factPos{call.Pos(), "reads the process environment (os." + name + ")", async})
	case pkg == "os" && (name == "Getpid" || name == "Hostname"):
		f.nondet = append(f.nondet, factPos{call.Pos(), "reads process identity (os." + name + ")", async})
	case pkg == "fmt":
		if idx, ok := fmtFormatArg[name]; ok && pointerVerbInFormat(p, call, idx) {
			f.nondet = append(f.nondet, factPos{call.Pos(), "formats a pointer address (%p)", async})
		}
	}

	// Blocking operations (lockheld).
	switch {
	case pkg == "time" && name == "Sleep":
		f.blocking = append(f.blocking, factPos{call.Pos(), "time.Sleep", async})
	case pkg == "sync" && name == "Wait" && recv() != nil:
		f.blocking = append(f.blocking, factPos{call.Pos(), "sync." + namedTypeName(recv()) + ".Wait", async})
	case pkg == "os" && recv() == nil && osBlockingFuncs[name]:
		f.blocking = append(f.blocking, factPos{call.Pos(), "file I/O (os." + name + ")", async})
	case pkg == "os" && recv() != nil && namedTypeName(recv()) == "File" && fileBlockingMethods[name]:
		f.blocking = append(f.blocking, factPos{call.Pos(), "file I/O ((*os.File)." + name + ")", async})
	case pkg == "net" && recv() == nil && strings.HasPrefix(name, "Dial"):
		f.blocking = append(f.blocking, factPos{call.Pos(), "network dial (net." + name + ")", async})
	case pkg == "net" && recv() != nil && (strings.HasPrefix(name, "Dial") || name == "Accept"):
		f.blocking = append(f.blocking, factPos{call.Pos(), "network " + name, async})
	case pkg == "path/filepath" && (name == "Walk" || name == "WalkDir"):
		f.blocking = append(f.blocking, factPos{call.Pos(), "file I/O (filepath." + name + ")", async})
	}

	// net.Conn method I/O and deadline arms (deadlinecheck). Methods of a
	// conn-implementing type are the conn abstraction itself (wrappers like
	// faultnet.Conn), not a use of it.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if t := p.Info.TypeOf(sel.X); isConnType(t) {
			switch sel.Sel.Name {
			case "Read", "Write":
				if !isConnMethodDecl(p, f.decl) {
					f.connIO = append(f.connIO, factPos{call.Pos(), "calls " + sel.Sel.Name + " directly on a net.Conn", async})
				}
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				f.deadlines = append(f.deadlines, call.Pos())
			}
		} else if p.wrapsConn(f, sel.X) && wrapperIO(sel.Sel.Name) {
			f.connIO = append(f.connIO, factPos{call.Pos(), "calls " + sel.Sel.Name + " on a reader or writer wrapping a net.Conn", async})
		}
	}
}

// wrapperIO reports whether a method of a conn-wrapping reader or writer
// can reach the conn (Read, ReadByte, Peek, WriteString, Flush, ...), as
// opposed to inspecting the buffer (Buffered, Size, Available).
func wrapperIO(method string) bool {
	for _, prefix := range []string{"Read", "Write", "Peek", "Discard", "Flush"} {
		if strings.HasPrefix(method, prefix) {
			return true
		}
	}
	return false
}

// noteConnWrapper records lhs as a conn wrapper when rhs builds one.
func (p *Package) noteConnWrapper(f *funcFacts, lhs, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || !p.wrapsConn(f, rhs) || p.connLike(f, id) {
		return
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if f.connReaders == nil {
		f.connReaders = make(map[types.Object]bool)
	}
	f.connReaders[obj] = true
}

// connLike reports whether e is a net.Conn or a value wrapping one.
func (p *Package) connLike(f *funcFacts, e ast.Expr) bool {
	return isConnType(p.Info.TypeOf(e)) || p.wrapsConn(f, e)
}

// wrapsConn reports whether e is a reader or writer around a net.Conn: a
// variable noted as one, a call that hands a conn-like argument to a
// constructor returning a reader or writer (bufio.NewReaderSize(conn, n)),
// or a composite literal of a reader or writer type holding a conn-like
// element (&countingReader{r: br}).
func (p *Package) wrapsConn(f *funcFacts, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := p.Info.ObjectOf(e)
		return obj != nil && f.connReaders[obj]
	case *ast.CallExpr:
		if !isReadWriter(p.Info.TypeOf(e)) {
			return false
		}
		for _, arg := range e.Args {
			if p.connLike(f, arg) {
				return true
			}
		}
	case *ast.CompositeLit:
		if !isReadWriter(p.Info.TypeOf(e)) {
			return false
		}
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if p.connLike(f, elt) {
				return true
			}
		}
	}
	return false
}

// isReadWriter reports whether t has a Read or a Write method.
func isReadWriter(t types.Type) bool {
	return t != nil && (lookupMethod(t, "Read") != nil || lookupMethod(t, "Write") != nil)
}

// classifyConnArgs flags a net.Conn handed to a callee that can only read
// or write it: an io.Reader/io.Writer-shaped parameter has no deadline
// control, so the unbounded wait becomes the caller's responsibility.
// Passing the conn to a parameter that is itself conn-typed transfers
// ownership — the (analyzed) callee arms its own deadlines.
func (p *Package) classifyConnArgs(f *funcFacts, call *ast.CallExpr, async bool) {
	if tv, ok := p.Info.Types[call.Fun]; !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, _ := p.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	if isReadWriter(p.Info.TypeOf(call)) {
		return // a wrapper is being built; its reads and writes are the I/O
	}
	for i, arg := range call.Args {
		if !p.connLike(f, arg) {
			continue
		}
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (i < sig.Params().Len() && !sig.Variadic()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && sig.Params().Len() > 0:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil || isConnType(pt) {
			continue
		}
		iface, ok := pt.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		if lookupMethod(pt, "Read") == nil && lookupMethod(pt, "Write") == nil {
			continue
		}
		what := "a net.Conn"
		if !isConnType(p.Info.TypeOf(arg)) {
			what = "a reader wrapping a net.Conn"
		}
		desc := "passes " + what + " to " + callDescription(p, call) + " as " + types.TypeString(pt, types.RelativeTo(p.Pkg))
		f.connIO = append(f.connIO, factPos{arg.Pos(), desc, async})
	}
}

// callDescription names a call target for messages ("readFrame", or the
// selector text for methods).
func callDescription(p *Package, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "a function value"
}

// fmtFormatArg maps fmt formatting functions to the index of their format
// string argument.
var fmtFormatArg = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0, "Fprintf": 1, "Appendf": 1,
}

// pointerVerbInFormat reports whether the constant format string argument
// contains a %p verb.
func pointerVerbInFormat(p *Package, call *ast.CallExpr, idx int) bool {
	if idx >= len(call.Args) {
		return false
	}
	tv, ok := p.Info.Types[call.Args[idx]]
	if !ok || tv.Value == nil {
		return false
	}
	return strings.Contains(tv.Value.String(), "%p")
}

// namedTypeName returns the bare name of a (possibly pointer-to) named
// type, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isConnType reports whether t is a full net.Conn (Read, Write, Close,
// deadline control, and peer addresses). The address methods matter:
// *os.File has Read/Write/Close/SetReadDeadline too, and file handles must
// not be mistaken for network connections.
func isConnType(t types.Type) bool {
	if t == nil || !implementsWriter(t) {
		return false
	}
	for _, m := range []string{"Read", "Close", "SetDeadline", "SetReadDeadline", "SetWriteDeadline", "LocalAddr", "RemoteAddr"} {
		if lookupMethod(t, m) == nil {
			return false
		}
	}
	return true
}

// isConnMethodDecl reports whether fd declares a method on a type that is
// itself a net.Conn implementation (a conn wrapper's own Read/Write).
func isConnMethodDecl(p *Package, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isConnType(p.Info.TypeOf(fd.Recv.List[0].Type))
}

// ---- whole-program propagation ----

// witness records why a function is in a propagated set. A seed carries
// its own fact, desc at pos; a function reached from a seed carries the
// seed's fact and via, the neighbour it was reached through, so following
// via links walks back to the seed.
type witness struct {
	desc string
	pos  token.Pos
	via  FuncID
}

// propagate grows seeds breadth-first along the calls follow accepts,
// forward from caller to callee or backward from callee to caller, and
// returns it. Seeds are visited in sorted order, a caller's callees in call
// order and a callee's callers in sorted order, so every witness is
// deterministic. Only functions with an analyzed body are reached.
func (prog *Program) propagate(seeds map[FuncID]*witness, forward bool, follow func(*funcFacts, callSite) bool) map[FuncID]*witness {
	next := map[FuncID][]FuncID{}
	for _, id := range prog.ids {
		f := prog.fns[id]
		for _, cs := range f.calls {
			if !follow(f, cs) {
				continue
			}
			for _, t := range cs.targets {
				if forward {
					next[id] = append(next[id], t)
				} else {
					next[t] = append(next[t], id)
				}
			}
		}
	}
	var queue []FuncID
	for id := range seeds {
		queue = append(queue, id)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, n := range next[id] {
			if seeds[n] != nil || prog.fns[n] == nil {
				continue
			}
			seeds[n] = &witness{desc: seeds[id].desc, pos: seeds[id].pos, via: id}
			queue = append(queue, n)
		}
	}
	return seeds
}

// path returns the functions id's via links pass through on the way to its
// seed, nearest first: at most limit of them, or all when limit < 0.
func (prog *Program) path(ws map[FuncID]*witness, id FuncID, limit int) []string {
	var hops []string
	for w := ws[id]; w != nil && w.via != "" && len(hops) != limit; w = ws[w.via] {
		hops = append(hops, prog.shortID(w.via))
	}
	return hops
}

// isDigestEntry reports whether f is a digest/serialization entry point:
// the functions whose output bytes the paper requires to be bit-identical
// across runs and machines.
func isDigestEntry(f *funcFacts) bool {
	path := f.pkg.ImportPath
	name := f.fn.Name()
	switch {
	case pathHasSegment(path, "merkle"):
		return true // every merkle function builds or verifies hashed payloads
	case pathHasSegment(path, "tensor"), pathHasSegment(path, "nn"):
		return strings.HasPrefix(name, "Digest") || strings.HasPrefix(name, "WriteTo") ||
			strings.HasPrefix(name, "Hash") || name == "LayerHashes" ||
			name == "EntryHashes" || name == "PrecomputeDigests"
	case pathHasSegment(path, "core"):
		return name == coreDigestEntry
	}
	return false
}

// coreDigestEntry names core's digest entry point: the function that hands
// a state dict to the file store. The rule matches by name, so renaming
// that function must rename this constant; TestCoreDigestEntryExists fails
// when the repository's core package has no function of this name.
const coreDigestEntry = "saveStateDict"

// firstSyncFact returns the lexically first non-async fact, or nil.
func firstSyncFact(facts []factPos) *factPos {
	var best *factPos
	for i := range facts {
		if facts[i].async {
			continue
		}
		if best == nil || facts[i].pos < best.pos {
			best = &facts[i]
		}
	}
	return best
}
