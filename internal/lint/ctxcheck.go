package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxCheck enforces context plumbing in the serving tier. In the
// packages named by ctxPackages, a function that receives a
// context.Context must actually thread it: calling context.Background()
// or context.TODO() there detaches the work from its caller's deadline,
// calling a ctx-less blocking primitive (time.Sleep, http.Get, …)
// ignores cancellation outright, calling a module function that
// transitively blocks without accepting a context hides the same bug
// one hop away (a call-graph fixpoint, mirroring maprange's
// writer-set), and calling F when an FCtx variant exists forfeits the
// cancellation the variant was built to honor. Functions without a ctx
// parameter are the legitimate roots (heartbeat loops, main) and are
// not checked.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "require ctx-holding functions in the serving tier to thread their context into blocking work",
	Run:  runCtxCheck,
}

// ctxPackages names the serving-tier packages (by package name) where
// the context contract is enforced. The simulation core is excluded:
// it is synchronous and deterministic by design, and the determinism
// analyzer already bans real-time waits there.
var ctxPackages = map[string]bool{
	"service": true,
	"client":  true,
	"fabric":  true,
	"engine":  true,
}

// ctxSinkFuncs are ctx-less blocking package functions with a
// well-known ctx-aware alternative.
var ctxSinkFuncs = map[string]string{
	"time.Sleep":        "select on ctx.Done() and time.After instead",
	"net/http.Get":      "use http.NewRequestWithContext",
	"net/http.Post":     "use http.NewRequestWithContext",
	"net/http.PostForm": "use http.NewRequestWithContext",
	"net/http.Head":     "use http.NewRequestWithContext",
}

// ctxSinkMethods are ctx-less blocking methods, keyed by receiver type
// then method name.
var ctxSinkMethods = map[string]map[string]string{
	"net/http.Client": {
		"Get":      "use http.NewRequestWithContext and Client.Do",
		"Post":     "use http.NewRequestWithContext and Client.Do",
		"PostForm": "use http.NewRequestWithContext and Client.Do",
		"Head":     "use http.NewRequestWithContext and Client.Do",
	},
}

func runCtxCheck(pkgs []*Package, graph *callGraph) []Diagnostic {

	// Fixpoint: module functions that have no ctx parameter and
	// (transitively) reach a blocking sink. Functions that do take a ctx
	// are excluded from propagation — their own body is checked
	// directly, so a correctly plumbed wrapper does not taint callers.
	seed := make(map[*types.Func]bool)
	reason := make(map[*types.Func]string)
	for _, fn := range graph.order {
		site := graph.funcs[fn]
		if funcHasCtx(fn) {
			continue
		}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, _, ok := ctxSinkCall(site.pkg, call); ok {
				seed[fn] = true
				if reason[fn] == "" {
					reason[fn] = name
				}
			}
			return true
		})
	}
	blockers := graph.propagateUp(seed, funcHasCtx)
	// Back-propagate a representative sink name for the messages;
	// deterministic because graph.order is.
	for changed := true; changed; {
		changed = false
		for _, fn := range graph.order {
			if !blockers[fn] || reason[fn] != "" {
				continue
			}
			for _, callee := range graph.callees[fn] {
				if r := reason[callee]; r != "" {
					reason[fn] = r
					changed = true
					break
				}
			}
		}
	}

	var diags []Diagnostic
	for _, fn := range graph.order {
		site := graph.funcs[fn]
		if !ctxPackages[site.pkg.Types.Name()] || !funcHasCtx(fn) {
			continue
		}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := qualifiedFunc(site.pkg, call)
			if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "context" &&
				(callee.Name() == "Background" || callee.Name() == "TODO") {
				diags = append(diags, Diagnostic{
					Pos:     site.pkg.pos(call),
					Message: fmt.Sprintf("context.%s() inside a function that already receives a ctx: thread the caller's context instead of detaching", callee.Name()),
				})
				return true
			}
			if name, hint, ok := ctxSinkCall(site.pkg, call); ok {
				diags = append(diags, Diagnostic{
					Pos:     site.pkg.pos(call),
					Message: fmt.Sprintf("%s ignores the ctx this function receives; %s", name, hint),
				})
				return true
			}
			if callee == nil {
				return true
			}
			if blockers[callee] {
				diags = append(diags, Diagnostic{
					Pos:     site.pkg.pos(call),
					Message: fmt.Sprintf("call to %s blocks without accepting a context (reaches %s); plumb ctx through or add a ctx-aware variant", callee.Name(), reason[callee]),
				})
				return true
			}
			if v := ctxVariantOf(graph, callee); v != nil {
				diags = append(diags, Diagnostic{
					Pos:     site.pkg.pos(call),
					Message: fmt.Sprintf("%s has a context-aware variant %s; call it with this function's ctx", callee.Name(), v.Name()),
				})
			}
			return true
		})
	}
	return diags
}

// funcHasCtx reports whether fn's signature takes a context.Context.
func funcHasCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && hasCtxParam(sig)
}

// ctxSinkCall matches a call against the known ctx-less blocking
// primitives, returning a display name and the fix hint.
func ctxSinkCall(p *Package, call *ast.CallExpr) (name, hint string, ok bool) {
	fn := qualifiedFunc(p, call)
	if fn == nil {
		return "", "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig {
		return "", "", false
	}
	if sig.Recv() == nil {
		qual := fn.Pkg().Path() + "." + fn.Name()
		if hint, found := ctxSinkFuncs[qual]; found {
			return qual, hint, true
		}
		return "", "", false
	}
	recv := sig.Recv().Type()
	if ptr, okPtr := recv.(*types.Pointer); okPtr {
		recv = ptr.Elem()
	}
	named, okNamed := recv.(*types.Named)
	if !okNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	recvName := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if methods, found := ctxSinkMethods[recvName]; found {
		if hint, foundM := methods[fn.Name()]; foundM {
			return recvName + "." + fn.Name(), hint, true
		}
	}
	return "", "", false
}

// ctxVariantOf finds a `<Name>Ctx` sibling of callee — same package for
// functions, same receiver type for methods — whose first parameter is
// a context.Context.
func ctxVariantOf(g *callGraph, callee *types.Func) *types.Func {
	if funcHasCtx(callee) {
		return nil
	}
	want := callee.Name() + "Ctx"
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for _, fn := range g.order {
		if fn.Name() != want || fn.Pkg() != callee.Pkg() {
			continue
		}
		vsig, okSig := fn.Type().(*types.Signature)
		if !okSig || vsig.Params().Len() == 0 || !isContextType(vsig.Params().At(0).Type()) {
			continue
		}
		if (sig.Recv() == nil) != (vsig.Recv() == nil) {
			continue
		}
		if sig.Recv() != nil && !types.Identical(recvNamed(sig), recvNamed(vsig)) {
			continue
		}
		return fn
	}
	return nil
}

// recvNamed strips a pointer receiver to its named type for identity
// comparison.
func recvNamed(sig *types.Signature) types.Type {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
