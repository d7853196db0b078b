package lint

// Test harness for the analyzer fixtures. Expected findings are declared
// in the fixture sources themselves as trailing `// want "substring"`
// comments; each analyzer test loads its fixture packages and requires a
// one-to-one match between diagnostics and markers — same file, same
// line, message containing the quoted substring.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtureDirs lists every fixture package, loaded together in one Load
// call so the standard library is type-checked once for the whole suite.
var fixtureDirs = []string{
	"determinism",
	"determinism/clock",
	"determinism/engine",
	"determinism/obs",
	"determinism/shard",
	"determinism/smc",
	"determinism/telemetry",
	"determinism/tracegen",
	"maprange",
	"wiretag",
	"canoncheck",
	"lockcheck",
	"ctxcheck",
	"hotalloc",
}

var fixtures struct {
	once sync.Once
	pkgs map[string]*Package // fixture-relative dir -> package
	err  error
}

// fixturePkgs returns the named fixture packages (paths relative to
// internal/lint/testdata/src).
func fixturePkgs(t *testing.T, names ...string) []*Package {
	t.Helper()
	fixtures.once.Do(func() {
		root, modPath, err := FindModule(".")
		if err != nil {
			fixtures.err = err
			return
		}
		dirs := make([]string, len(fixtureDirs))
		for i, n := range fixtureDirs {
			dirs[i] = filepath.Join("internal", "lint", "testdata", "src", filepath.FromSlash(n))
		}
		pkgs, err := Load(root, modPath, dirs)
		if err != nil {
			fixtures.err = err
			return
		}
		fixtures.pkgs = make(map[string]*Package, len(pkgs))
		base := filepath.Join(root, "internal", "lint", "testdata", "src")
		for _, p := range pkgs {
			rel, err := filepath.Rel(base, p.Dir)
			if err != nil {
				fixtures.err = err
				return
			}
			fixtures.pkgs[filepath.ToSlash(rel)] = p
		}
	})
	if fixtures.err != nil {
		t.Fatalf("loading fixture packages: %v", fixtures.err)
	}
	out := make([]*Package, 0, len(names))
	for _, n := range names {
		p, ok := fixtures.pkgs[n]
		if !ok {
			t.Fatalf("no fixture package %q (have %v)", n, fixtureDirs)
		}
		out = append(out, p)
	}
	return out
}

// marker is one expected finding declared in fixture source.
type marker struct {
	file   string // base name
	line   int
	substr string
	seen   bool
}

var wantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

// wantMarkers scans the fixture packages' comments for want markers.
func wantMarkers(t *testing.T, pkgs []*Package) []*marker {
	t.Helper()
	var out []*marker
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					substr, err := strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("bad want marker %q: %v", c.Text, err)
					}
					pos := p.Fset.Position(c.Pos())
					out = append(out, &marker{
						file:   filepath.Base(pos.Filename),
						line:   pos.Line,
						substr: substr,
					})
				}
			}
		}
	}
	return out
}

// fixtureCase is one row in an analyzer's test table.
type fixtureCase struct {
	name string
	dirs []string // fixture packages to load, relative to testdata/src
}

// runFixtureCases checks, per case, that the analyzer's diagnostics match
// the want markers in the named fixture packages exactly.
func runFixtureCases(t *testing.T, a *Analyzer, cases []fixtureCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := fixturePkgs(t, tc.dirs...)
			diags, _ := Run(pkgs, []*Analyzer{a})
			want := wantMarkers(t, pkgs)
			for _, d := range diags {
				if d.Analyzer != a.Name {
					t.Errorf("diagnostic has analyzer %q, want %q", d.Analyzer, a.Name)
				}
				matched := false
				for _, w := range want {
					if w.seen || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
						continue
					}
					if !strings.Contains(d.Message, w.substr) {
						t.Errorf("%s: message %q does not contain %q", d, d.Message, w.substr)
					}
					w.seen = true
					matched = true
					break
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range want {
				if !w.seen {
					t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
				}
			}
		})
	}
}
