package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CanonCheck pins the cache-key invariant: every exported field of a
// canon root (sim.Scenario, or any struct marked `rdlint:canonroot`)
// and of every struct reachable from it through exported fields must
// influence the canonical form. A field "influences" it when the root's
// Canonical method — or any function marked `rdlint:canonconsumer`
// (resultcache.Key), or anything they transitively call — either names
// the field in a selector (reads it, rewrites it, or deliberately
// zeroes it) or passes the whole enclosing struct to a call (the
// `fmt.Sprintf("device=%+v", canon.Device)` idiom, which folds every
// field, present and future, into the digest). A new Scenario field
// that silently misses the key is a lint error here, instead of a
// cross-worker cache collision in production. `rdlint:nocanon` on a
// field is the audited opt-out.
var CanonCheck = &Analyzer{
	Name: "canoncheck",
	Doc:  "require every canon-root field to reach Canonical()/the cache key or carry rdlint:nocanon",
	Run:  runCanonCheck,
}

const (
	canonRootMarker     = "rdlint:canonroot"
	canonConsumerMarker = "rdlint:canonconsumer"
	noCanonMarker       = "rdlint:nocanon"
)

// canonRoots lists the known cache-key root types by package name and
// type name, mirroring wiretag's fixed root list; the marker adds more.
var canonRoots = []struct{ pkg, typ string }{
	{"sim", "Scenario"},
}

func runCanonCheck(pkgs []*Package, graph *callGraph) []Diagnostic {
	typeIdx := buildTypeIndex(pkgs)
	var diags []Diagnostic

	// Roots, in deterministic file order.
	var roots []*types.TypeName
	rootSet := make(map[*types.TypeName]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || rootSet[tn] {
					return true
				}
				named := false
				for _, r := range canonRoots {
					if p.Types.Name() == r.pkg && ts.Name.Name == r.typ {
						named = true
					}
				}
				if named || strings.Contains(typeIdx[tn].doc, canonRootMarker) {
					rootSet[tn] = true
					roots = append(roots, tn)
				}
				return true
			})
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Consumer closure: each root's Canonical method, every function
	// marked rdlint:canonconsumer, and everything they transitively call.
	var consumerRoots []*types.Func
	haveCanonical := make(map[*types.TypeName]bool)
	for _, fn := range graph.order {
		site := graph.funcs[fn]
		if hasMarker(site.decl.Doc, canonConsumerMarker) {
			consumerRoots = append(consumerRoots, fn)
		}
		if site.decl.Recv == nil || fn.Name() != "Canonical" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok && rootSet[named.Obj()] {
			haveCanonical[named.Obj()] = true
			consumerRoots = append(consumerRoots, fn)
		}
	}
	for _, root := range roots {
		if !haveCanonical[root] {
			site := typeIdx[root]
			diags = append(diags, Diagnostic{
				Pos:     site.pkg.pos(site.spec),
				Message: fmt.Sprintf("canon root %s has no Canonical method; the cache key has nothing to consume", root.Name()),
			})
		}
	}
	consumers := graph.reachable(consumerRoots)

	// Walk consumer bodies once, collecting three facts: fields named by
	// a selector, structs selected into (their fields are keyed
	// individually, so each one must be covered), and structs passed
	// whole to a call (every field, present and future, is covered).
	consumed := make(map[*types.Var]bool)
	selectedInto := make(map[*types.TypeName]bool)
	wholeSeed := make(map[*types.TypeName]bool)
	for _, fn := range graph.order {
		if !consumers[fn] {
			continue
		}
		site := graph.funcs[fn]
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				seln, ok := site.pkg.Info.Selections[n]
				if !ok || seln.Kind() != types.FieldVal {
					return true
				}
				if fv, ok := seln.Obj().(*types.Var); ok {
					consumed[fv] = true
				}
				if tn := namedStructIn(seln.Recv(), typeIdx); tn != nil {
					selectedInto[tn] = true
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if t := site.pkg.Info.TypeOf(arg); t != nil {
						if tn := namedStructIn(t, typeIdx); tn != nil {
							wholeSeed[tn] = true
						}
					}
				}
			}
			return true
		})
	}

	// The canon closure: structs reachable from the roots through
	// exported fields not marked rdlint:nocanon.
	reach := make(map[*types.TypeName]bool)
	work := append([]*types.TypeName(nil), roots...)
	for _, r := range roots {
		reach[r] = true
	}
	for len(work) > 0 {
		tn := work[len(work)-1]
		work = work[:len(work)-1]
		site, ok := typeIdx[tn]
		if !ok {
			continue
		}
		forEachCanonField(site, func(field *ast.Field, fv *types.Var) {
			if !fv.Exported() || fv.Embedded() || hasCanonOptOut(field) {
				return
			}
			if sub := namedStructIn(fv.Type(), typeIdx); sub != nil && !reach[sub] {
				reach[sub] = true
				work = append(work, sub)
			}
		})
	}

	// Whole-consumption closes over exported fields: %+v prints nested
	// structs too.
	whole := make(map[*types.TypeName]bool)
	var wwork []*types.TypeName
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if ok && wholeSeed[tn] && !whole[tn] {
					whole[tn] = true
					wwork = append(wwork, tn)
				}
				return true
			})
		}
	}
	for len(wwork) > 0 {
		tn := wwork[len(wwork)-1]
		wwork = wwork[:len(wwork)-1]
		site, ok := typeIdx[tn]
		if !ok {
			continue
		}
		forEachCanonField(site, func(field *ast.Field, fv *types.Var) {
			if !fv.Exported() {
				return
			}
			if sub := namedStructIn(fv.Type(), typeIdx); sub != nil && !whole[sub] {
				whole[sub] = true
				wwork = append(wwork, sub)
			}
		})
	}

	// Check: a struct in the closure is audited when it is a root or a
	// consumer keys it field-by-field; a wholly-consumed struct needs no
	// per-field audit.
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || !reach[tn] || whole[tn] {
					return true
				}
				if !rootSet[tn] && !selectedInto[tn] {
					return true
				}
				site := typeIdx[tn]
				forEachCanonField(site, func(field *ast.Field, fv *types.Var) {
					if !fv.Exported() || fv.Embedded() || hasCanonOptOut(field) {
						return
					}
					if consumed[fv] {
						return
					}
					diags = append(diags, Diagnostic{
						Pos: p.pos(field),
						Message: fmt.Sprintf("exported field %s.%s never reaches the canonical form: Canonical()/its consumers neither name it nor fold the whole struct — key it or mark it rdlint:nocanon",
							tn.Name(), fv.Name()),
					})
				})
				return true
			})
		}
	}
	return diags
}

// forEachCanonField pairs a struct declaration's AST fields with their
// type-checker objects, in declaration order.
func forEachCanonField(site typeSite, visit func(field *ast.Field, fv *types.Var)) {
	if site.spec == nil {
		return
	}
	stAST, ok := site.spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range stAST.Fields.List {
		if len(field.Names) == 0 {
			continue // embedded: no annotations, and no roots embed
		}
		for _, name := range field.Names {
			if fv, ok := site.pkg.Info.Defs[name].(*types.Var); ok {
				visit(field, fv)
			}
		}
	}
}

// hasCanonOptOut reports whether the field carries rdlint:nocanon in
// its doc or trailing comment.
func hasCanonOptOut(field *ast.Field) bool {
	return hasMarker(field.Doc, noCanonMarker) || hasMarker(field.Comment, noCanonMarker)
}
