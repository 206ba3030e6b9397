package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockheld: a mutex held across a blocking call — file or network I/O, a
// channel operation, a sleep, a Wait — turns every other acquirer into a
// queue behind that wait. For the docdb engine and the planned serving-tier
// cache this is the difference between "one slow disk stalls one request"
// and "one slow disk stalls the store". The analyzer computes lexical lock
// regions (Lock/RLock to the first matching Unlock/RUnlock on the same
// receiver; a deferred unlock extends the region to the function's end) and
// flags a region containing a blocking operation, either directly or
// transitively through the call graph (synchronous calls only: spawning a
// goroutine does not block the spawner).
//
// One finding is reported per lock region, anchored at the Lock call, so a
// single //mmlint:ignore covers a deliberately serialized region.
const nameLockHeld = "lockheld"

var lockHeldAnalyzer = &Analyzer{
	Name: nameLockHeld,
	Doc:  "mutex held across a blocking call (I/O, channel op, sleep, Wait)",
	Run:  runLockHeld,
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call on a sync.Mutex or
// sync.RWMutex, keyed by the receiver's expression text.
type lockEvent struct {
	pos      token.Pos
	key      string
	lock     bool
	deferred bool
}

func runLockHeld(prog *Program, p *Package) []Finding {
	var out []Finding
	for _, f := range p.fns {
		// The enclosing function's synchronous code is one scope; every
		// go-launched literal body is its own scope (its locks and its
		// blocking are that goroutine's).
		out = append(out, p.lockScope(prog, f, f.decl.Body, false)...)
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
					out = append(out, p.lockScope(prog, f, lit.Body, true)...)
				}
			}
			return true
		})
	}
	return out
}

// lockScope finds the lock regions of one scope and flags those that span a
// blocking operation. async selects which of f's facts belong to this scope.
func (p *Package) lockScope(prog *Program, f *funcFacts, body *ast.BlockStmt, async bool) []Finding {
	events := p.lockEvents(body, async)
	if len(events) == 0 {
		return nil
	}
	var out []Finding
	for i, ev := range events {
		if !ev.lock {
			continue
		}
		end := body.End()
		for _, u := range events[i+1:] {
			if u.lock || u.key != ev.key {
				continue
			}
			if !u.deferred {
				end = u.pos
			}
			break
		}
		// The earliest blocking thing inside [ev.pos, end): a direct
		// fact, or a synchronous call into a transitively blocking callee.
		var (
			bestPos  token.Pos
			bestDesc string
		)
		consider := func(pos token.Pos, desc string) {
			if pos <= ev.pos || pos >= end || !inNode(body, pos) {
				return
			}
			if bestPos == 0 || pos < bestPos {
				bestPos, bestDesc = pos, desc
			}
		}
		for _, facts := range [][]factPos{f.blocking, f.connIO} {
			for _, b := range facts {
				if b.async != async {
					continue
				}
				consider(b.pos, b.desc)
			}
		}
		for _, cs := range f.calls {
			if cs.async != async {
				continue
			}
			for _, callee := range cs.targets {
				if w := prog.blocking[callee]; w != nil {
					desc := w.desc + " at " + p.position(w.pos)
					if hops := prog.path(prog.blocking, callee, 5); len(hops) > 0 {
						desc = "via " + strings.Join(hops, " → ") + ": " + desc
					}
					consider(cs.pos, prog.shortID(callee)+" "+desc)
					break
				}
			}
		}
		if bestPos != 0 {
			out = append(out, p.findingAt(ev.pos, nameLockHeld,
				"%s holds %s across %s (%s); other acquirers stall behind the wait — unlock first or narrow the region",
				f.fn.Name(), ev.key, bestDesc, p.position(bestPos)))
		}
	}
	return out
}

// lockEvents collects the mutex Lock/Unlock calls lexically inside body,
// skipping go-launched literal bodies when scanning the synchronous scope
// (async=false): those belong to their own scope.
func (p *Package) lockEvents(body *ast.BlockStmt, async bool) []lockEvent {
	var events []lockEvent
	var walk func(n ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !async {
					for _, arg := range n.Call.Args {
						walk(arg, deferred)
					}
					return false
				}
				return true
			case *ast.DeferStmt:
				// Only a directly deferred unlock pends to function exit; a
				// deferred closure's body runs sequentially within itself.
				if ev, ok := p.mutexCall(n.Call); ok {
					ev.deferred = true
					events = append(events, ev)
					return false
				}
				walk(n.Call, false)
				return false
			case *ast.CallExpr:
				if ev, ok := p.mutexCall(n); ok {
					ev.deferred = deferred
					events = append(events, ev)
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
	return events
}

// mutexCall classifies a call as a sync.Mutex/RWMutex Lock/RLock/Unlock/
// RUnlock and returns the event keyed by the receiver expression.
func (p *Package) mutexCall(call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	name := sel.Sel.Name
	var lock bool
	switch name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return lockEvent{}, false
	}
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return lockEvent{}, false
	}
	switch namedTypeName(sig.Recv().Type()) {
	case "Mutex", "RWMutex":
	default:
		return lockEvent{}, false
	}
	return lockEvent{pos: call.Pos(), key: types.ExprString(sel.X), lock: lock}, true
}

// inNode reports whether pos falls inside n's source range.
func inNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
