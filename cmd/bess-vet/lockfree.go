package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockfree enforces the E16 contract: everything reachable from a
// //bess:lockfree root (SnapFetchSeg, the snapshot scan path, version-chain
// readers) takes zero locks. The analyzer runs an interprocedural taint
// walk over the static call graph from each root; any reachable
// Lock/RLock on a sync or lockcheck mutex, or Acquire on a lock manager,
// is a finding.
//
// A //bess:lockfree ignore=<reason> waiver on (or above) a call line does
// two things: it suppresses findings on that line and it prunes the walk
// into that callee — the right shape for branches that are legitimately
// locked (the pull path of a shared scan loop) and for short in-memory
// critical sections that are part of the design (the as-of index mutex,
// flow-control credit counters). Interface and closure-value
// calls are not resolved; the E16 lock-stats delta assertion covers those
// edges at runtime.
type lockfreeAnalysis struct {
	dirs  *directives
	r     *reporter
	fset  *token.FileSet
	decls map[*types.Func]*walDecl
	seen  map[string]bool
}

func analyzeLockFree(pkgs []*pkg, dirs *directives, r *reporter) {
	if len(dirs.lockfreeRoots) == 0 {
		return
	}
	a := &lockfreeAnalysis{
		dirs:  dirs,
		r:     r,
		decls: make(map[*types.Func]*walDecl),
		seen:  make(map[string]bool),
	}
	for _, p := range pkgs {
		a.fset = p.fset
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, _ := p.info.Defs[fd.Name].(*types.Func); fn != nil {
					a.decls[fn] = &walDecl{p: p, fd: fd}
				}
			}
		}
	}
	type item struct {
		fn   *types.Func
		path []string
	}
	visited := make(map[*types.Func]bool)
	var queue []item
	for root := range a.dirs.lockfreeRoots {
		if _, ok := a.decls[root]; ok {
			queue = append(queue, item{fn: root, path: []string{root.Name()}})
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.fn] {
			continue
		}
		visited[it.fn] = true
		d := a.decls[it.fn]
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lockName, isLock := a.lockAcquire(d.p, call); isLock {
				if !a.waived(call.Pos()) {
					a.reportOnce(call.Pos(),
						"%s acquired on the lock-free path %s — snapshot readers must take no locks; restructure (copy-on-write, atomics) or waive with //bess:lockfree ignore=<reason>",
						lockName, strings.Join(it.path, " → "))
				}
				return true
			}
			callee := calleeOf(d.p, call)
			if callee == nil || visited[callee] {
				return true
			}
			if _, known := a.decls[callee]; !known {
				return true
			}
			if a.waived(call.Pos()) {
				return true // waiver prunes the walk into this callee
			}
			queue = append(queue, item{fn: callee, path: append(append([]string(nil), it.path...), callee.Name())})
			return true
		})
	}
}

// lockAcquire classifies a call as a blocking lock acquisition: Lock/RLock
// on sync.Mutex/RWMutex or a lockcheck mutex, or Acquire on a type named
// Manager (the 2PL lock manager).
func (a *lockfreeAnalysis) lockAcquire(p *pkg, call *ast.CallExpr) (string, bool) {
	fn := calleeOf(p, call)
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return "", false
	}
	obj := named.Obj()
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	isMutex := (obj.Name() == "Mutex" || obj.Name() == "RWMutex") &&
		(pkgPath == "sync" || strings.HasSuffix(pkgPath, "internal/lockcheck"))
	switch {
	case isMutex && (fn.Name() == "Lock" || fn.Name() == "RLock"):
		return types.ExprString(call.Fun), true
	case obj.Name() == "Manager" && fn.Name() == "Acquire":
		return types.ExprString(call.Fun), true
	}
	return "", false
}

func (a *lockfreeAnalysis) waived(pos token.Pos) bool {
	position := a.fset.Position(pos)
	m := a.dirs.lockfreeIgnores[position.Filename]
	if m == nil {
		return false
	}
	_, same := m[position.Line]
	_, above := m[position.Line-1]
	return same || above
}

func (a *lockfreeAnalysis) reportOnce(pos token.Pos, format string, args ...any) {
	position := a.fset.Position(pos)
	key := position.Filename + ":" + itoa(position.Line)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.r.report(pos, "lockfree", format, args...)
}
