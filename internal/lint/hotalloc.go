package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotAlloc enforces the hot-path allocation budget: a function marked
// `rdlint:hotpath` in its doc comment (the device per-access path, the
// SMC issue loop and front end, the trace-replay inner loop)
// may not contain allocating constructs. The event-driven core refactor
// pinned the long-vector benchmark at a fixed allocation count
// (BENCH_core_speed.json); this analyzer turns that number from a
// benchmark regression into a review-time lint error. Flagged
// constructs: go and defer statements, function literals that escape,
// interface conversions (boxing) at call arguments, assignments and
// returns, make/new and map or slice literals, append to an un-presized
// local slice, and any fmt call. Arguments to panic are
// exempt — the crash path may allocate — and only direct constructs
// are checked: callees are either marked themselves or deliberately
// cold (first-touch pools, watchdog dumps).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in functions marked rdlint:hotpath",
	Run:  runHotAlloc,
}

const hotPathMarker = "rdlint:hotpath"

func runHotAlloc(pkgs []*Package, _ *callGraph) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasMarker(fd.Doc, hotPathMarker) {
					continue
				}
				diags = append(diags, checkHotFunc(p, fd)...)
			}
		}
	}
	return diags
}

// hotChecker carries the per-function context of one hotpath scan.
type hotChecker struct {
	p     *Package
	fd    *ast.FuncDecl
	diags []Diagnostic
	// localInit maps locals declared in this function to their
	// initializer (nil for `var s []T`), for the append presize check.
	localInit map[*types.Var]ast.Expr
	// panicArgs spans the argument ranges of panic calls, which are
	// exempt from the fmt and boxing rules.
	panicArgs []span
}

type span struct{ lo, hi int }

func (c *hotChecker) inPanic(n ast.Node) bool {
	for _, s := range c.panicArgs {
		if int(n.Pos()) >= s.lo && int(n.End()) <= s.hi {
			return true
		}
	}
	return false
}

func (c *hotChecker) flag(n ast.Node, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos:     c.p.pos(n),
		Message: fmt.Sprintf(format, args...) + fmt.Sprintf(" (hot path: %s is marked %s)", c.fd.Name.Name, hotPathMarker),
	})
}

func checkHotFunc(p *Package, fd *ast.FuncDecl) []Diagnostic {
	c := &hotChecker{p: p, fd: fd, localInit: map[*types.Var]ast.Expr{}}

	// Pre-pass: local initializers and panic-argument spans.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, l := range n.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				if v, ok := p.Info.Defs[id].(*types.Var); ok {
					c.localInit[v] = n.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					if i < len(n.Values) {
						c.localInit[v] = n.Values[i]
					} else {
						c.localInit[v] = nil
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					c.panicArgs = append(c.panicArgs, span{lo: int(n.Lparen), hi: int(n.Rparen)})
				}
			}
		}
		return true
	})

	var results *types.Tuple
	if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		results = fn.Type().(*types.Signature).Results()
	}
	c.walk(fd.Body, results)
	return c.diags
}

// walk scans for allocating constructs. results is the result tuple of
// the innermost enclosing function, so returns inside nested literals
// are checked against the literal's own signature, not the hot
// function's.
func (c *hotChecker) walk(body ast.Node, results *types.Tuple) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			c.flag(n, "go statement allocates a goroutine")
			return true
		case *ast.DeferStmt:
			c.flag(n, "defer allocates and delays work on the hot path")
			return true
		case *ast.FuncLit:
			// Escape analysis, lint-sized: a literal assigned to a fresh
			// local and only called, or invoked immediately, stays on
			// the stack; every other use escapes. The body is walked
			// separately with the literal's own result types.
			if !c.funcLitStays(n) {
				c.flag(n, "function literal escapes to the heap")
			}
			if sig, ok := c.p.Info.TypeOf(n).(*types.Signature); ok {
				c.walk(n.Body, sig.Results())
			}
			return false
		case *ast.CompositeLit:
			c.checkComposite(n)
			return true
		case *ast.CallExpr:
			c.checkCall(n)
			return true
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					c.checkConversion(n.Rhs[i], c.p.Info.TypeOf(n.Lhs[i]), "assignment")
				}
			}
			return true
		case *ast.ValueSpec:
			if n.Type != nil {
				want := c.p.Info.TypeOf(n.Type)
				for _, v := range n.Values {
					c.checkConversion(v, want, "assignment")
				}
			}
			return true
		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, r := range n.Results {
					c.checkConversion(r, results.At(i).Type(), "return")
				}
			}
			return true
		}
		return true
	})
}

// funcLitStays reports whether the literal is used in one of the two
// non-escaping shapes: `f := func(){…}` to a fresh local, or an
// immediately invoked `func(){…}()`.
func (c *hotChecker) funcLitStays(fl *ast.FuncLit) bool {
	stays := false
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if r != fl || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if _, fresh := c.p.Info.Defs[id]; fresh {
						stays = true
					}
				}
			}
		case *ast.CallExpr:
			if n.Fun == fl {
				stays = true
			}
		}
		return !stays
	})
	return stays
}

// checkComposite flags map/slice literals and &struct{} pointers.
func (c *hotChecker) checkComposite(lit *ast.CompositeLit) {
	t := c.p.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.flag(lit, "map literal allocates")
	case *types.Slice:
		c.flag(lit, "slice literal allocates")
	}
}

// checkCall handles make/new, fmt calls, boxing at arguments, and the
// append presize rule.
func (c *hotChecker) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, okB := c.p.Info.Uses[id].(*types.Builtin); okB {
			switch b.Name() {
			case "make":
				c.flag(call, "make allocates; hoist the buffer out of the hot path or presize it in setup")
			case "new":
				c.flag(call, "new allocates")
			case "append":
				c.checkAppend(call)
			}
			return
		}
	}
	// &T{} pointer composites arrive as unary expressions; catch them
	// where they are passed or assigned via the conversion checks, and
	// directly here for the bare statement form.
	fn := qualifiedFunc(c.p, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && !c.inPanic(call) {
		c.flag(call, "fmt.%s allocates (formatting boxes its operands)", fn.Name())
		return
	}
	// Boxing: a concrete value passed where the callee wants an
	// interface is heap-allocated at the call site.
	if c.inPanic(call) {
		return
	}
	if tv, ok := c.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.checkConversion(call.Args[0], tv.Type, "conversion")
		}
		return
	}
	sigT := c.p.Info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var want types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			want = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == 0:
			want = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case params.Len() > 0:
			want = params.At(params.Len() - 1).Type()
		}
		if want != nil {
			c.checkConversion(arg, want, "argument")
		}
	}
}

// checkConversion flags expr if placing it into a slot of type want
// boxes a concrete value into an interface.
func (c *hotChecker) checkConversion(expr ast.Expr, want types.Type, where string) {
	if want == nil || !types.IsInterface(want) {
		return
	}
	got := c.p.Info.TypeOf(expr)
	if got == nil || types.IsInterface(got) {
		return
	}
	if b, ok := got.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch got.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored in the interface word, no box
	}
	if c.inPanic(expr) {
		return
	}
	c.flag(expr, "interface conversion at %s boxes a %s value onto the heap", where, got.String())
}

// checkAppend flags append whose destination is a local slice declared
// without capacity — growth reallocates in the hot loop. Appends to
// fields, parameters, and package-level slices are exempt: the presize
// contract lives at their allocation site (and the setup phase presizes
// the FIFO fields this path appends to).
func (c *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return // selector (field) or indexed destination: presized at setup
	}
	v, ok := c.p.Info.Uses[id].(*types.Var)
	if !ok {
		if v, ok = c.p.Info.Defs[id].(*types.Var); !ok {
			return
		}
	}
	init, local := c.localInit[v]
	if !local {
		return // parameter or package-level: caller owns the capacity
	}
	if initCall, ok := init.(*ast.CallExpr); ok {
		if fid, ok := initCall.Fun.(*ast.Ident); ok {
			if b, okB := c.p.Info.Uses[fid].(*types.Builtin); okB && b.Name() == "make" && len(initCall.Args) >= 2 {
				return // make with an explicit length/capacity: presized
			}
		}
	}
	c.flag(call, "append to %s grows an un-presized local slice", id.Name)
}
