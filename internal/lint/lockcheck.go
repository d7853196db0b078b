package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces the `// guarded by <mu>` field annotations: a
// guarded field may only be read or written while the named sibling
// mutex is held on every path reaching the access. The analysis is a
// CFG-lite abstract interpretation over each function body — the fact
// is the set of (receiver object, mutex field) pairs currently held;
// branches are walked separately and merge by intersection ("held on
// all paths"), `defer mu.Unlock()` holds to function end, and early
// returns terminate their path. Lock/unlock pairing is checked too:
// unlocking a mutex the path does not hold and re-locking one it does
// are both reported. Functions whose name ends in "Locked" follow the
// repo convention that the caller holds the locks and are skipped;
// composite-literal construction (`&Cache{entries: …}`) is not a field
// access, so constructors that fully initialize in the literal pass.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "require `guarded by <mu>` fields to be accessed only under their mutex, on all paths",
	Run:  runLockCheck,
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// lockMode says how a mutex is held.
type lockMode uint8

const (
	heldWrite lockMode = 1 << iota // Lock
	heldRead                       // RLock
)

// lockKey names one mutex instance as far as the analysis can see: the
// leftmost identifier of the selector chain plus the mutex field.
type lockKey struct {
	base types.Object
	mu   *types.Var
}

// lockFacts is the abstract state: which mutexes the current path
// holds, and in what mode. nil *lockFacts means "unreachable".
type lockFacts struct {
	held map[lockKey]lockMode
}

func newLockFacts() *lockFacts { return &lockFacts{held: map[lockKey]lockMode{}} }

func (s *lockFacts) clone() *lockFacts {
	if s == nil {
		return nil
	}
	c := newLockFacts()
	for k, m := range s.held {
		c.held[k] = m
	}
	return c
}

// merge intersects two path states; a nil side (unreachable) yields the
// other unchanged.
func mergeFacts(a, b *lockFacts) *lockFacts {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newLockFacts()
	for k, ma := range a.held {
		if mb, ok := b.held[k]; ok {
			m := ma & mb
			if m == 0 {
				// Held for writing on one path, reading on the other:
				// only the weaker read guarantee survives.
				m = heldRead
			}
			out.held[k] = m
		}
	}
	return out
}

func runLockCheck(pkgs []*Package, _ *callGraph) []Diagnostic {
	var diags []Diagnostic
	guards := make(map[*types.Var]*types.Var) // guarded field -> mutex field

	// Pass 1: collect and validate the annotations.
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				stAST, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range stAST.Fields.List {
					m := guardedByRe.FindStringSubmatch(fieldComment(field))
					if m == nil {
						continue
					}
					muName := m[1]
					mu := findSiblingMutex(p, stAST, muName)
					if mu == nil {
						diags = append(diags, Diagnostic{
							Pos:     p.pos(field),
							Message: fmt.Sprintf("`guarded by %s` names no sibling sync.Mutex/RWMutex field in %s", muName, ts.Name.Name),
						})
						continue
					}
					for _, name := range field.Names {
						if fv, ok := p.Info.Defs[name].(*types.Var); ok {
							guards[fv] = mu
						}
					}
				}
				return true
			})
		}
	}
	if len(guards) == 0 {
		return diags
	}

	// Pass 2: abstract-interpret every function body.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if strings.HasSuffix(fd.Name.Name, "Locked") {
					continue // repo convention: the caller holds the locks
				}
				c := &lockChecker{p: p, guards: guards, diags: &diags}
				c.stmts(fd.Body.List, newLockFacts())
			}
		}
	}
	return diags
}

// findSiblingMutex resolves a mutex field by name within the same
// struct declaration.
func findSiblingMutex(p *Package, stAST *ast.StructType, name string) *types.Var {
	for _, field := range stAST.Fields.List {
		for _, fn := range field.Names {
			if fn.Name != name {
				continue
			}
			fv, ok := p.Info.Defs[fn].(*types.Var)
			if ok && isMutexType(fv.Type()) {
				return fv
			}
			return nil
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockChecker walks one function body, threading lockFacts through.
type lockChecker struct {
	p      *Package
	guards map[*types.Var]*types.Var
	diags  *[]Diagnostic
}

// stmts walks a statement list; the returned state is the fall-through
// exit (nil if every path leaves by return/panic/branch).
func (c *lockChecker) stmts(list []ast.Stmt, st *lockFacts) *lockFacts {
	for _, s := range list {
		if st == nil {
			return nil // unreachable code: nothing sound to report
		}
		st = c.stmt(s, st)
	}
	return st
}

func (c *lockChecker) stmt(s ast.Stmt, st *lockFacts) *lockFacts {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op, ok := c.lockOp(call); ok {
				return c.applyLockOp(call, key, op, st)
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				c.expr(s.X, st, false)
				return nil
			}
		}
		c.expr(s.X, st, false)
		return st
	case *ast.DeferStmt:
		if key, op, ok := c.lockOp(s.Call); ok {
			// defer mu.Unlock(): the mutex stays held to function end,
			// so the path keeps its fact; defer mu.Lock() is nonsense we
			// leave to vet.
			_ = key
			_ = op
			return st
		}
		for _, a := range s.Call.Args {
			c.expr(a, st, false)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure runs after the body: it must do its own
			// locking.
			c.stmts(fl.Body.List, newLockFacts())
		} else {
			c.expr(s.Call.Fun, st, false)
		}
		return st
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.expr(a, st, false)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, newLockFacts())
		} else {
			c.expr(s.Call.Fun, st, false)
		}
		return st
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.expr(r, st, false)
		}
		for _, l := range s.Lhs {
			c.expr(l, st, true)
		}
		return st
	case *ast.IncDecStmt:
		c.expr(s.X, st, true)
		return st
	case *ast.DeclStmt:
		c.expr(nil, st, false)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, st, false)
					}
				}
			}
		}
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.expr(s.Cond, st, false)
		thenExit := c.stmts(s.Body.List, st.clone())
		elseExit := st
		if s.Else != nil {
			elseExit = c.stmt(s.Else, st.clone())
		}
		return mergeFacts(thenExit, elseExit)
	case *ast.ForStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		if s.Cond != nil {
			c.expr(s.Cond, st, false)
		}
		bodyExit := c.stmts(s.Body.List, st.clone())
		if s.Post != nil && bodyExit != nil {
			bodyExit = c.stmt(s.Post, bodyExit)
		}
		if s.Cond == nil {
			// `for { … }` only exits through break/return inside the
			// body; the state after it is whatever the body left.
			return mergeFacts(bodyExit, nil)
		}
		return mergeFacts(st, bodyExit)
	case *ast.RangeStmt:
		c.expr(s.X, st, false)
		bodyExit := c.stmts(s.Body.List, st.clone())
		return mergeFacts(st, bodyExit)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		if s.Tag != nil {
			c.expr(s.Tag, st, false)
		}
		return c.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.stmt(s.Assign, st)
		return c.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		var exit *lockFacts
		any := false
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := st.clone()
			if cc.Comm != nil {
				branch = c.stmt(cc.Comm, branch)
			}
			branchExit := c.stmts(cc.Body, branch)
			if !any {
				exit, any = branchExit, true
			} else {
				exit = mergeFacts(exit, branchExit)
			}
		}
		if !any {
			return st
		}
		return exit
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, st, false)
		}
		return nil
	case *ast.BranchStmt:
		return nil // break/continue/goto leave this path
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.SendStmt:
		c.expr(s.Chan, st, false)
		c.expr(s.Value, st, false)
		return st
	default:
		return st
	}
}

// caseClauses merges the exits of a switch body's case clauses; with no
// default clause the zero-case fall-through keeps the entry state.
func (c *lockChecker) caseClauses(body *ast.BlockStmt, st *lockFacts) *lockFacts {
	var exit *lockFacts
	any := false
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			c.expr(e, st, false)
		}
		branchExit := c.stmts(cc.Body, st.clone())
		if !any {
			exit, any = branchExit, true
		} else {
			exit = mergeFacts(exit, branchExit)
		}
	}
	if !any {
		return st
	}
	if !hasDefault {
		exit = mergeFacts(exit, st)
	}
	return exit
}

// lockOp recognizes base.mu.Lock / RLock / Unlock / RUnlock on a
// tracked mutex field reached through an identifier-rooted chain.
func (c *lockChecker) lockOp(call *ast.CallExpr) (lockKey, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return lockKey{}, "", false
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	seln, ok := c.p.Info.Selections[muSel]
	if !ok || seln.Kind() != types.FieldVal {
		return lockKey{}, "", false
	}
	mu, ok := seln.Obj().(*types.Var)
	if !ok || !isMutexType(mu.Type()) || !c.tracked(mu) {
		return lockKey{}, "", false
	}
	base := baseIdentObj(c.p, muSel.X)
	if base == nil {
		return lockKey{}, "", false
	}
	return lockKey{base: base, mu: mu}, op, true
}

// tracked reports whether mu guards at least one annotated field.
func (c *lockChecker) tracked(mu *types.Var) bool {
	for _, m := range c.guards {
		if m == mu {
			return true
		}
	}
	return false
}

// applyLockOp transitions the state for one lock call, reporting
// pairing violations.
func (c *lockChecker) applyLockOp(call *ast.CallExpr, key lockKey, op string, st *lockFacts) *lockFacts {
	pos := c.p.pos(call)
	switch op {
	case "Lock", "TryLock":
		if _, held := st.held[key]; held {
			*c.diags = append(*c.diags, Diagnostic{
				Pos:     pos,
				Message: fmt.Sprintf("%s.Lock() while %s is already held on this path (double lock, or an unlock is missing on another)", key.mu.Name(), key.mu.Name()),
			})
		}
		st.held[key] = heldWrite
	case "RLock", "TryRLock":
		if _, held := st.held[key]; held {
			*c.diags = append(*c.diags, Diagnostic{
				Pos:     pos,
				Message: fmt.Sprintf("%s.RLock() while %s is already held on this path", key.mu.Name(), key.mu.Name()),
			})
		}
		st.held[key] = heldRead
	case "Unlock", "RUnlock":
		if _, held := st.held[key]; !held {
			*c.diags = append(*c.diags, Diagnostic{
				Pos:     pos,
				Message: fmt.Sprintf("%s.%s() but %s is not held on every path reaching here", key.mu.Name(), op, key.mu.Name()),
			})
		}
		delete(st.held, key)
	}
	return st
}

// expr checks every guarded-field access inside e against the current
// facts. write says whether e is a store target. Function literals are
// walked with empty facts — they run on their own schedule and must do
// their own locking.
func (c *lockChecker) expr(e ast.Expr, st *lockFacts, write bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.stmts(n.Body.List, newLockFacts())
			return false
		case *ast.SelectorExpr:
			c.checkAccess(n, st, write)
		case *ast.CallExpr:
			// Nested lock calls in expression position are rare enough
			// to ignore as state transitions, but their arguments are
			// ordinary reads.
			if _, _, isLock := c.lockOp(n); isLock {
				for _, a := range n.Args {
					c.expr(a, st, false)
				}
				return false
			}
		}
		return true
	})
}

// checkAccess reports a guarded-field selector not covered by the
// held-mutex facts.
func (c *lockChecker) checkAccess(sel *ast.SelectorExpr, st *lockFacts, write bool) {
	seln, ok := c.p.Info.Selections[sel]
	if !ok || seln.Kind() != types.FieldVal {
		return
	}
	fv, ok := seln.Obj().(*types.Var)
	if !ok {
		return
	}
	mu, guarded := c.guards[fv]
	if !guarded {
		return
	}
	base := baseIdentObj(c.p, sel.X)
	if base == nil {
		return // rooted in a call result or assertion: cannot track the instance
	}
	mode, held := st.held[lockKey{base: base, mu: mu}]
	verb := "read"
	if write {
		verb = "write"
	}
	if !held {
		*c.diags = append(*c.diags, Diagnostic{
			Pos:     c.p.pos(sel),
			Message: fmt.Sprintf("%s of %s (guarded by %s) without holding %s on every path to this access", verb, fv.Name(), mu.Name(), mu.Name()),
		})
		return
	}
	if write && mode&heldWrite == 0 {
		*c.diags = append(*c.diags, Diagnostic{
			Pos:     c.p.pos(sel),
			Message: fmt.Sprintf("write of %s (guarded by %s) while holding only the read lock", fv.Name(), mu.Name()),
		})
	}
}
