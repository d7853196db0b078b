package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `for … range` over a map whose body leaks Go's
// randomized iteration order into an ordered artifact: appending to a
// slice that is never subsequently sorted, building a string with +=, or
// writing output (directly, or through any function in the module that
// transitively writes). This is the bug class that would break
// byte-identical serial-vs-parallel sweeps, CSV goldens, and
// Scenario.Canonical-derived cache keys. The blessed idiom — collect the
// keys, sort, then iterate — is recognized and not flagged.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag order-sensitive work (appends, output, key building) inside map iteration",
	Run:  runMapRange,
}

// writeFuncs are package-level functions that emit ordered output.
var writeFuncs = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"io.WriteString": true, "io.Copy": true, "os.WriteFile": true,
}

// writeMethods are method names that emit ordered output on any receiver
// (writers, builders, encoders).
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// sortFuncs are the sort/slices entry points that re-establish a
// deterministic order over a collected slice.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

func runMapRange(pkgs []*Package) []Diagnostic {
	writers := buildWriterSet(pkgs)
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := p.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
						return true
					}
					diags = append(diags, checkMapRangeBody(p, fd, rs, writers)...)
					return true
				})
			}
		}
	}
	return diags
}

// checkMapRangeBody inspects one map-range body for order-sensitive sinks.
func checkMapRangeBody(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, writers map[*types.Func]bool) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// s += expr on a string builds a key/record in map order.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t := p.Info.TypeOf(n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						diags = append(diags, Diagnostic{
							Pos:     p.pos(n),
							Message: "string built with += inside map iteration; iteration order is randomized — collect and sort first",
						})
					}
				}
			}
			// v = append(v, …) escaping the loop without a later sort.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				target, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue // e.g. groups[k] = append(groups[k], …): keyed, order-independent
				}
				obj, ok := p.Info.Uses[target].(*types.Var)
				if !ok {
					if def, okDef := p.Info.Defs[target].(*types.Var); okDef {
						obj = def
					} else {
						continue
					}
				}
				if obj.Pos() >= rs.Body.Pos() && obj.Pos() < rs.Body.End() {
					continue // per-iteration temporary; order can't leak
				}
				if sortedAfter(p, fd, rs, obj) {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:     p.pos(n),
					Message: fmt.Sprintf("append to %q inside map iteration with no later sort; slice order follows the randomized map order", target.Name),
				})
			}
		case *ast.CallExpr:
			if name, ok := callWrites(p, n, writers); ok {
				diags = append(diags, Diagnostic{
					Pos:     p.pos(n),
					Message: fmt.Sprintf("%s inside map iteration writes output in randomized map order; iterate a sorted copy of the keys", name),
				})
			}
		}
		return true
	})
	return diags
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether obj is passed to a sort function after the
// range statement, anywhere in the enclosing function — the
// collect-then-sort idiom.
func sortedAfter(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, obj *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if fn := qualifiedFunc(p, call); fn == nil || !sortFuncs[fn.Pkg().Path()+"."+fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
					return false
				}
				return !found
			})
			if found {
				break
			}
		}
		return !found
	})
	return found
}

// qualifiedFunc resolves a call to a package-level *types.Func, or nil.
func qualifiedFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// callWrites reports whether the call emits ordered output: a known write
// function, a write-like method, or a module function that transitively
// writes. The returned name labels the diagnostic.
func callWrites(p *Package, call *ast.CallExpr, writers map[*types.Func]bool) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
			if sig, okSig := fn.Type().(*types.Signature); okSig && sig.Recv() != nil && writeMethods[fn.Name()] {
				return fn.Name(), true
			}
		}
	}
	fn := qualifiedFunc(p, call)
	if fn == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
		if writeFuncs[fn.Pkg().Path()+"."+fn.Name()] {
			return fn.Pkg().Path() + "." + fn.Name(), true
		}
	}
	if writers[fn] {
		return fn.Name(), true
	}
	return "", false
}

// buildWriterSet computes the module functions that (transitively) write
// output: those that call a write sink directly, closed upward over the
// module call graph. It is what lets the analyzer see through helpers: a
// loop calling emit(...) is as ordered as one calling fmt.Println
// directly.
func buildWriterSet(pkgs []*Package) map[*types.Func]bool {
	g := buildCallGraph(pkgs)
	direct := make(map[*types.Func]bool)
	for _, fn := range g.order {
		site := g.funcs[fn]
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if _, writes := callWrites(site.pkg, call, nil); writes {
					direct[fn] = true
				}
			}
			return !direct[fn]
		})
	}
	return g.propagateUp(direct, nil)
}
