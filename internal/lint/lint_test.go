package lint

import (
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	cases := []struct {
		name    string
		arg     string
		want    []string // analyzer names, in order
		wantErr string
	}{
		{name: "empty selects the full suite", arg: "", want: []string{
			"determinism", "maprange", "wiretag",
			"canoncheck", "lockcheck", "ctxcheck", "hotalloc"}},
		{name: "single analyzer", arg: "wiretag", want: []string{"wiretag"}},
		{name: "comma list preserves order", arg: "hotalloc,determinism", want: []string{"hotalloc", "determinism"}},
		{name: "spaces tolerated", arg: " maprange , wiretag ", want: []string{"maprange", "wiretag"}},
		{name: "unknown analyzer rejected", arg: "gofmt", wantErr: `unknown analyzer "gofmt"`},
		{name: "only commas selects nothing", arg: ",,", wantErr: "selected no analyzers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Select(tc.arg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Select(%q) error = %v, want containing %q", tc.arg, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Select(%q): %v", tc.arg, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("Select(%q) returned %d analyzers, want %d", tc.arg, len(got), len(tc.want))
			}
			for i, a := range got {
				if a.Name != tc.want[i] {
					t.Errorf("Select(%q)[%d] = %q, want %q", tc.arg, i, a.Name, tc.want[i])
				}
			}
		})
	}
}

func TestRunSortsAndStampsDiagnostics(t *testing.T) {
	pkgs := fixturePkgs(t, "determinism", "maprange")
	diags, stats := Run(pkgs, []*Analyzer{MapRange, Determinism})
	if len(diags) == 0 {
		t.Fatal("expected findings from the fixture packages")
	}
	counted := 0
	for _, st := range stats.Analyzers {
		counted += st.Findings
	}
	if counted != len(diags) {
		t.Errorf("stats count %d findings, Run returned %d", counted, len(diags))
	}
	for i, d := range diags {
		if d.Analyzer == "" {
			t.Errorf("diagnostic %d has empty Analyzer", i)
		}
		if i == 0 {
			continue
		}
		prev := diags[i-1]
		if prev.Pos.Filename > d.Pos.Filename ||
			(prev.Pos.Filename == d.Pos.Filename && prev.Pos.Line > d.Pos.Line) {
			t.Errorf("diagnostics out of order: %s before %s", prev, d)
		}
	}
}

func TestExpandSkipsTestdataUnlessTargeted(t *testing.T) {
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	normal, err := Expand(root, root, []string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range normal {
		if strings.Contains(d, "testdata") {
			t.Errorf("module walk included fixture dir %s", d)
		}
	}
	fixtures, err := Expand(root, root, []string{"./internal/lint/testdata/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != len(fixtureDirs) {
		t.Errorf("testdata walk found %d dirs %v, want %d", len(fixtures), fixtures, len(fixtureDirs))
	}
}

// TestShippedTreeClean lints the whole module in-process: the shipped
// tree must produce no findings. Skipped under -short (it type-checks
// the whole module).
func TestShippedTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check; run without -short")
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := Expand(root, root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, modPath, dirs)
	if err != nil {
		t.Fatal(err)
	}
	diags, _ := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("shipped tree finding: %s", d)
	}
}
