package telemetry_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rdramstream/internal/telemetry"
)

// TestNilProbeMethodsDoNotPanic is the nil-probe contract: the
// simulators instrument unconditionally and an uninstrumented run passes
// nil probes everywhere, so every exported pointer-receiver method on
// every probe type must tolerate a nil receiver. Reflection finds each
// such method, so a new one is covered the day it is added; the test
// calls it through a typed nil with zero-valued arguments. A new *Probe
// type must join the targets: the package source is scanned for them.
func TestNilProbeMethodsDoNotPanic(t *testing.T) {
	targets := []any{
		(*telemetry.Collector)(nil),
		(*telemetry.DeviceProbe)(nil),
		(*telemetry.ControllerProbe)(nil),
		(*telemetry.FIFOProbe)(nil),
		(*telemetry.EventBuffer)(nil),
		(*telemetry.Series)(nil),
		(*telemetry.Histogram)(nil),
	}
	listed := make(map[string]bool)
	for _, target := range targets {
		listed[reflect.TypeOf(target).Elem().Name()] = true
	}
	for _, name := range probeTypesInSource(t) {
		if !listed[name] {
			t.Errorf("probe type %s is missing from the nil-receiver targets", name)
		}
	}

	for _, target := range targets {
		v := reflect.ValueOf(target)
		typ := v.Type()
		typeName := typ.Elem().Name()

		// Value-receiver methods cannot be reached through a nil pointer
		// without dereferencing it, and the static contract only covers
		// pointer receivers — skip them.
		valueMethods := make(map[string]bool)
		for i := 0; i < typ.Elem().NumMethod(); i++ {
			valueMethods[typ.Elem().Method(i).Name] = true
		}

		called := 0
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			if valueMethods[m.Name] {
				continue
			}
			mt := m.Func.Type() // In(0) is the receiver
			n := mt.NumIn()
			if mt.IsVariadic() {
				n-- // omit the variadic tail entirely
			}
			args := make([]reflect.Value, 1, n)
			args[0] = v
			for j := 1; j < n; j++ {
				args = append(args, reflect.Zero(mt.In(j)))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(*%s).%s panicked on nil receiver: %v", typeName, m.Name, r)
					}
				}()
				m.Func.Call(args)
			}()
			called++
		}
		if called == 0 {
			t.Errorf("*%s exposes no pointer-receiver methods; the probe contract expects some", typeName)
		}
	}
}

// probeTypesInSource returns the *Probe types the package declares.
func probeTypesInSource(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					if n := spec.(*ast.TypeSpec).Name.Name; strings.HasSuffix(n, "Probe") {
						names = append(names, n)
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no *Probe types in the package source")
	}
	return names
}
