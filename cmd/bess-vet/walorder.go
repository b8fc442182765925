package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// walorder proves the write-ahead ordering contract inside //bess:walorder
// packages (DESIGN.md §4f):
//
//  1. Log-before-data: every page-store sink — a call whose static callee
//     is declared by //bess:walsink Type.Method — must be dominated on its
//     path by a WAL append (a call to a method named Append on a type named
//     Log, or to a function whose call-graph summary proves it performs
//     one). Recovery's redo/undo replay and abort's before-image restore
//     re-apply already-logged records; those sites carry
//     //bess:walorder ignore=<reason> waivers.
//
//  2. Capture-before-mutate: for each declared
//     //bess:walorder capture=T.M mutate=T.M pair, every call to the
//     mutate function must be preceded, in the same function, by a call to
//     the capture function. The server pairs its as-of index insert with
//     the page store: a snapshot that reads the new page must find the
//     record that undoes it. The mutate side may itself be a walsink.
//
//  3. Monotone LSN chains: an identifier assigned from an Append result
//     goes stale as soon as a later Append runs; using a stale identifier
//     as a record's PrevLSN would fork the per-transaction chain.
//
// The walk is a source-order scan of each function body: branch bodies are
// visited sequentially and effects persist (an Append inside one arm of an
// if marks the path logged). That is deliberately optimistic — the fixtures
// pin the classes it must catch, and the walcheck runtime checker covers
// the residual path sensitivity under -tags walcheck.
type walAnalysis struct {
	dirs        *directives
	r           *reporter
	fset        *token.FileSet
	decls       map[*types.Func]*walDecl
	providesLog map[*types.Func]bool
	seen        map[string]bool
}

type walDecl struct {
	p  *pkg
	fd *ast.FuncDecl
}

func analyzeWALOrder(pkgs []*pkg, dirs *directives, r *reporter) {
	w := &walAnalysis{
		dirs:        dirs,
		r:           r,
		decls:       make(map[*types.Func]*walDecl),
		providesLog: make(map[*types.Func]bool),
		seen:        make(map[string]bool),
	}
	var marked []*pkg
	for _, p := range pkgs {
		if !dirs.walorder[p.path] {
			continue
		}
		marked = append(marked, p)
		w.fset = p.fset
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, _ := p.info.Defs[fd.Name].(*types.Func); fn != nil {
					w.decls[fn] = &walDecl{p: p, fd: fd}
				}
			}
		}
	}
	if len(marked) == 0 {
		return
	}
	w.buildProvidesLog()
	for _, d := range w.decls {
		walkFuncWAL(w, d)
	}
}

// buildProvidesLog runs the fixpoint: a function provides a log append if
// its body contains one directly or calls a function that does.
func (w *walAnalysis) buildProvidesLog() {
	callees := make(map[*types.Func][]*types.Func)
	for fn, d := range w.decls {
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isLogAppend(d.p, call) {
				w.providesLog[fn] = true
				return true
			}
			if callee := calleeOf(d.p, call); callee != nil {
				if _, known := w.decls[callee]; known {
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			if w.providesLog[fn] {
				continue
			}
			for _, c := range cs {
				if w.providesLog[c] {
					w.providesLog[fn] = true
					changed = true
					break
				}
			}
		}
	}
}

// isLogAppend reports whether call appends a WAL record: a method named
// Append on a (pointer to a) named type called Log. Name-based so the
// fixture's miniature Log matches alongside bess/internal/wal.Log.
func isLogAppend(p *pkg, call *ast.CallExpr) bool {
	fn := calleeOf(p, call)
	if fn == nil || fn.Name() != "Append" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Name() == "Log"
}

// funcKey renders a *types.Func as the "Type.Method" (or bare function)
// name the walsink and capture= directives use.
func funcKey(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Name()
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return fn.Name()
	}
	return named.Obj().Name() + "." + fn.Name()
}

// walWalk carries the per-function path state.
type walWalk struct {
	w *walAnalysis
	d *walDecl

	logged    bool
	captured  map[string]bool
	appendSeq int
	lsnSeq    map[types.Object]int
}

func walkFuncWAL(w *walAnalysis, d *walDecl) {
	fw := &walWalk{
		w:        w,
		d:        d,
		captured: make(map[string]bool),
		lsnSeq:   make(map[types.Object]int),
	}
	fw.block(d.fd.Body)
}

func (fw *walWalk) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		fw.stmt(s)
	}
}

func (fw *walWalk) stmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.ExprStmt:
		fw.expr(n.X)
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			fw.expr(rhs)
		}
		// lsn, err := l.Append(...) — bind the first LHS ident to the
		// append that just ran.
		if len(n.Rhs) == 1 {
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isLogAppend(fw.d.p, call) && len(n.Lhs) > 0 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					if obj := identObj(fw.d.p, id); obj != nil {
						fw.lsnSeq[obj] = fw.appendSeq
					}
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fw.expr(v)
					}
				}
			}
		}
	case *ast.IfStmt:
		if n.Init != nil {
			fw.stmt(n.Init)
		}
		fw.expr(n.Cond)
		fw.block(n.Body)
		if n.Else != nil {
			fw.stmt(n.Else)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			fw.stmt(n.Init)
		}
		if n.Cond != nil {
			fw.expr(n.Cond)
		}
		fw.block(n.Body)
		if n.Post != nil {
			fw.stmt(n.Post)
		}
	case *ast.RangeStmt:
		fw.expr(n.X)
		fw.block(n.Body)
	case *ast.BlockStmt:
		fw.block(n)
	case *ast.SwitchStmt:
		if n.Init != nil {
			fw.stmt(n.Init)
		}
		if n.Tag != nil {
			fw.expr(n.Tag)
		}
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, s := range cc.Body {
					fw.stmt(s)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, s := range cc.Body {
					fw.stmt(s)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, s := range cc.Body {
					fw.stmt(s)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			fw.expr(e)
		}
	case *ast.DeferStmt:
		fw.call(n.Call)
	case *ast.GoStmt:
		fw.call(n.Call)
	case *ast.LabeledStmt:
		fw.stmt(n.Stmt)
	case *ast.SendStmt:
		fw.expr(n.Value)
	}
}

// expr visits call expressions in evaluation order. Function literals are
// skipped: a closure runs at an unknown point, so its body cannot borrow
// this path's logged state (the runtime checker covers those edges).
func (fw *walWalk) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fw.call(call)
		}
		return true
	})
}

// call classifies one call expression against the walorder event kinds.
func (fw *walWalk) call(call *ast.CallExpr) {
	p := fw.d.p
	if isLogAppend(p, call) {
		fw.checkPrevLSN(call)
		fw.appendSeq++
		fw.logged = true
		return
	}
	callee := calleeOf(p, call)
	if callee == nil {
		return
	}
	key := funcKey(callee)
	for _, pair := range fw.w.dirs.walcaptures {
		if key == pair.capture {
			fw.captured[pair.capture] = true
		}
		if key == pair.mutate && !fw.captured[pair.capture] && !fw.waived(call.Pos()) {
			fw.report(call.Pos(), "call to %s without a preceding %s capture — the capture must record the change before the mutation lands", pair.mutate, pair.capture)
		}
	}
	if fw.w.dirs.walsinks[key] {
		if !fw.logged && !fw.waived(call.Pos()) {
			fw.report(call.Pos(), "page store via %s before any wal append on this path — the log-before-data rule requires the covering record first; reorder, or waive with //bess:walorder ignore=<reason> for replay paths", key)
		}
		return
	}
	if fw.w.providesLog[callee] {
		fw.logged = true
	}
}

// checkPrevLSN flags a PrevLSN field initialized from an identifier that
// was assigned by an Append older than the most recent one on this path.
func (fw *walWalk) checkPrevLSN(call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "PrevLSN" {
				return true
			}
			id, ok := ast.Unparen(kv.Value).(*ast.Ident)
			if !ok {
				return true
			}
			obj := identObj(fw.d.p, id)
			if obj == nil {
				return true
			}
			if seq, tracked := fw.lsnSeq[obj]; tracked && seq < fw.appendSeq && !fw.waived(id.Pos()) {
				fw.report(id.Pos(), "PrevLSN uses %s, which predates a later Append on this path — the per-transaction LSN chain must be monotone; reassign the chain head after every Append", id.Name)
			}
			return true
		})
	}
}

func (fw *walWalk) waived(pos token.Pos) bool {
	position := fw.w.fset.Position(pos)
	m := fw.w.dirs.walorderIgnores[position.Filename]
	if m == nil {
		return false
	}
	_, same := m[position.Line]
	_, above := m[position.Line-1]
	return same || above
}

func (fw *walWalk) report(pos token.Pos, format string, args ...any) {
	position := fw.w.fset.Position(pos)
	key := position.Filename + ":" + itoa(position.Line)
	if fw.w.seen[key] {
		return
	}
	fw.w.seen[key] = true
	fw.w.r.report(pos, "walorder", format, args...)
}

// identObj resolves an identifier to its object (use or def).
func identObj(p *pkg, id *ast.Ident) types.Object {
	if o := p.info.Uses[id]; o != nil {
		return o
	}
	return p.info.Defs[id]
}
