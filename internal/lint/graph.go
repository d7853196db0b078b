package lint

// The shared dataflow substrate the analyzers build on: a whole-module
// call graph with reachability and fixpoint propagation (maprange's
// writer set, ctxcheck's blockers), a declaration index for named types
// (wiretag's closure walk, canoncheck's roots), and the marker helpers
// for the rdlint:* doc-comment annotations. Everything here is
// stdlib-only and deterministic: indexes are built by walking packages,
// files, and declarations in slice order, never by ranging over maps
// where order could leak into diagnostics.

import (
	"go/ast"
	"go/types"
	"strings"
)

// funcSite is where a function is declared: its package and AST.
type funcSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// callGraph indexes every function or method declared with a body in
// the loaded packages, plus the module-internal call edges between
// them. Calls inside function literals are attributed to the enclosing
// declaration — a closure's blocking call is its owner's blocking call.
type callGraph struct {
	// order lists the declared functions in deterministic
	// (package, file, declaration) order.
	order []*types.Func
	funcs map[*types.Func]funcSite
	// callees[f] lists the module functions f calls, in call-site order.
	callees map[*types.Func][]*types.Func
	edges   int
}

// buildCallGraph walks the loaded packages once and returns the graph.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		funcs:   make(map[*types.Func]funcSite),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.order = append(g.order, fn)
				g.funcs[fn] = funcSite{pkg: p, decl: fd}
			}
		}
	}
	for _, fn := range g.order {
		site := g.funcs[fn]
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := qualifiedFunc(site.pkg, call)
			if callee == nil {
				return true
			}
			if _, inModule := g.funcs[callee]; inModule {
				g.callees[fn] = append(g.callees[fn], callee)
				g.edges++
			}
			return true
		})
	}
	return g
}

// reachable returns the transitive callee closure of roots, roots
// included.
func (g *callGraph) reachable(roots []*types.Func) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	work := append([]*types.Func(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range g.callees[fn] {
			if !seen[c] {
				seen[c] = true
				work = append(work, c)
			}
		}
	}
	return seen
}

// propagateUp closes seed under "a caller of a member is a member",
// skipping callers for which skip reports true (they are checked by
// other means). The transfer is monotone, so map iteration order can
// only change how many passes the fixpoint takes, never its result.
func (g *callGraph) propagateUp(seed map[*types.Func]bool, skip func(*types.Func) bool) map[*types.Func]bool {
	members := make(map[*types.Func]bool, len(seed))
	for fn, ok := range seed {
		if ok {
			members[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range g.callees {
			if members[fn] || (skip != nil && skip(fn)) {
				continue
			}
			for _, c := range cs {
				if members[c] {
					members[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return members
}

// typeSite is where a named type is declared: its package, AST spec,
// and resolved doc comment (the spec's own doc, falling back to the
// enclosing GenDecl's).
type typeSite struct {
	pkg  *Package
	spec *ast.TypeSpec
	doc  string
}

// buildTypeIndex maps every named type declared in the loaded packages
// to its declaration site.
func buildTypeIndex(pkgs []*Package) map[*types.TypeName]typeSite {
	idx := make(map[*types.TypeName]typeSite)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					doc := ""
					if ts.Doc != nil {
						doc = ts.Doc.Text()
					} else if gd.Doc != nil {
						doc = gd.Doc.Text()
					}
					idx[tn] = typeSite{pkg: p, spec: ts, doc: doc}
				}
			}
		}
	}
	return idx
}

// hasMarker reports whether the comment group mentions the given
// rdlint marker token.
func hasMarker(cg *ast.CommentGroup, marker string) bool {
	return cg != nil && strings.Contains(cg.Text(), marker)
}

// fieldComment joins a struct field's doc and trailing line comment —
// field annotations (`guarded by`, `rdlint:nocanon`) may sit in either.
func fieldComment(field *ast.Field) string {
	var parts []string
	if field.Doc != nil {
		parts = append(parts, field.Doc.Text())
	}
	if field.Comment != nil {
		parts = append(parts, field.Comment.Text())
	}
	return strings.Join(parts, "\n")
}

// namedStructIn unwraps pointers, slices, arrays, and map values to a
// named struct type declared in the loaded module, or nil.
func namedStructIn(t types.Type, idx map[*types.TypeName]typeSite) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); !ok {
				return nil
			}
			tn := u.Obj()
			if _, declared := idx[tn]; !declared {
				return nil
			}
			return tn
		default:
			return nil
		}
	}
}

// baseIdentObj resolves the leftmost identifier of a selector/index
// chain (sw.lines[i], c.stats.Shed, (*d).cfg) to its object, or nil
// when the chain is rooted in something we cannot track (a call result,
// a type assertion).
func baseIdentObj(p *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ctxType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasCtxParam reports whether the signature takes a context.Context
// anywhere in its parameter list.
func hasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}
