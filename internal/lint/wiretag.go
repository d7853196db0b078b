package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// WireTag pins the wire format. The scenario JSON is simultaneously the
// HTTP API request body, the on-disk result-cache entry, and (through
// Canonical) the input to the content-addressed cache key, so a field
// added without a deliberate encoding decision silently changes all
// three. The analyzer computes the set of wire-format structs — a fixed
// root list (sim.Scenario, the service request/response types, the
// resultcache entry) plus any struct marked `rdlint:wire` in its doc
// comment, closed over exported struct-typed fields — and requires every
// exported field to carry an explicit json tag. Tags pin the existing
// wire spelling: renaming a field on the wire is now a visible tag diff,
// never an accident. Observer and function fields must be json:"-".
var WireTag = &Analyzer{
	Name: "wiretag",
	Doc:  "require explicit json tags on every exported field of wire-format structs",
	Run:  runWireTag,
}

// wireMarker in a struct's doc comment adds it to the wire-format roots.
const wireMarker = "rdlint:wire"

// wireRoots lists the known wire-format entry points by package name and
// type name. The closure walk pulls in everything they embed or carry.
var wireRoots = []struct{ pkg, typ string }{
	{"sim", "Scenario"},
	{"sim", "Outcome"},
	{"service", "SweepRequest"},
	{"service", "SimulateResponse"},
	{"service", "SweepLine"},
	{"service", "HealthResponse"},
	{"service", "errorResponse"},
	{"service", "JobStatus"},
	{"service", "ScenarioResult"},
	{"service", "Metrics"},
	{"resultcache", "diskEntry"},
	{"resultcache", "Stats"},
	{"telemetry", "Report"},
	// The trace subsystem: the NDJSON stream format (Header/Line), the
	// ingestion envelope (TraceHeader), and the generator spec that rides
	// inside scenario JSON and the content-addressed cache key.
	{"tracegen", "Header"},
	{"tracegen", "Line"},
	{"tracegen", "Spec"},
	{"tracegen", "Program"},
	{"tracegen", "Phase"},
	{"service", "TraceHeader"},
	{"workload", "TraceAccess"},
}

func runWireTag(pkgs []*Package) []Diagnostic {
	// The declaration index traces closure members back to their doc
	// comments and keeps the walk within the module.
	decls := buildTypeIndex(pkgs)

	// Seed the worklist: fixed roots plus marker-tagged structs, found by
	// walking files (not the decls map) for deterministic order.
	inWire := make(map[*types.TypeName]bool)
	var work []*types.TypeName
	seed := func(tn *types.TypeName) {
		if tn != nil && !inWire[tn] {
			inWire[tn] = true
			work = append(work, tn)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				d := decls[tn]
				for _, root := range wireRoots {
					if p.Types.Name() == root.pkg && ts.Name.Name == root.typ {
						seed(tn)
					}
				}
				if strings.Contains(d.doc, wireMarker) {
					seed(tn)
				}
				return true
			})
		}
	}

	// Closure over exported struct-typed fields.
	for i := 0; i < len(work); i++ {
		st, ok := work[i].Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for j := 0; j < st.NumFields(); j++ {
			f := st.Field(j)
			if !f.Exported() && !f.Embedded() {
				continue
			}
			if jsonTagName(st.Tag(j)) == "-" {
				continue // explicitly off the wire; don't recurse
			}
			seed(namedStructIn(f.Type(), decls))
		}
	}

	// Check every wire struct we hold the declaration of.
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || !inWire[tn] {
					return true
				}
				stAST, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				diags = append(diags, checkWireStruct(p, ts.Name.Name, stAST, st)...)
				return true
			})
		}
	}
	return diags
}

// checkWireStruct validates one wire struct's field tags against its AST.
func checkWireStruct(p *Package, typeName string, stAST *ast.StructType, st *types.Struct) []Diagnostic {
	var diags []Diagnostic
	idx := 0
	for _, field := range stAST.Fields.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // embedded
		}
		for k := 0; k < n; k++ {
			fv := st.Field(idx)
			tag := st.Tag(idx)
			idx++
			if fv.Embedded() {
				continue // embedded structs inline their (checked) fields
			}
			if !fv.Exported() {
				continue // encoding/json ignores unexported fields
			}
			name := jsonTagName(tag)
			if isObserverType(fv.Type()) && name != "-" {
				diags = append(diags, Diagnostic{
					Pos:     p.pos(field),
					Message: fmt.Sprintf("field %s.%s has func type and must be tagged json:\"-\": observers are not part of the wire format", typeName, fv.Name()),
				})
				continue
			}
			if name == "" {
				diags = append(diags, Diagnostic{
					Pos: p.pos(field),
					Message: fmt.Sprintf("exported field %s.%s of wire-format struct has no explicit json tag; pin the wire name (or json:\"-\") so the HTTP API and cache entries cannot drift",
						typeName, fv.Name()),
				})
			}
		}
	}
	return diags
}

// jsonTagName extracts the json name from a struct tag: "" when the tag
// is missing or names nothing explicitly (`json:",omitempty"` included —
// the wire name would still be the implicit Go field name).
func jsonTagName(tag string) string {
	jt, ok := reflect.StructTag(tag).Lookup("json")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(jt, ",")
	return name
}

// isObserverType reports whether t is (or wraps) a function type — the
// Telemetry/Trace-style hook fields that must never hit the wire.
func isObserverType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Chan:
		return true
	case *types.Pointer:
		return isObserverType(u.Elem())
	}
	return false
}
