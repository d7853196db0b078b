package lint

// Property test for the canoncheck contract: the analyzer exists to
// catch the NEXT field someone adds to a cache-key root without keying
// it. Instead of trusting the fixture to stay representative, this test
// manufactures the event — a synthetic module with a fully-keyed
// Scenario is clean, and inserting one exported field (with any name)
// produces exactly one finding naming that field.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthScenario is a minimal sim.Scenario stand-in: a canon root whose
// Canonical method consumes every field, with a %s hole where the test
// inserts the forgotten field.
const synthScenario = `package sim

// Scenario is the synthetic cache-key root.
// rdlint:canonroot
type Scenario struct {
	Kernel string
	N      int
%s}

// Canonical consumes Kernel and N; whatever the test inserts above is
// deliberately missed.
func (sc Scenario) Canonical() Scenario {
	if sc.Kernel == "" {
		sc.Kernel = "copy"
	}
	if sc.N == 0 {
		sc.N = 1024
	}
	return sc
}
`

// loadSynth type-checks the synthetic module with the given struct-body
// insertion and returns canoncheck's findings on it.
func loadSynth(t *testing.T, insert string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	src := fmt.Sprintf(synthScenario, insert)
	if err := os.WriteFile(filepath.Join(dir, "sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, "synthmod", []string{"."})
	if err != nil {
		t.Fatalf("loading synthetic module: %v", err)
	}
	diags, _ := Run(pkgs, []*Analyzer{CanonCheck})
	return diags
}

func TestCanonCheckCatchesInsertedField(t *testing.T) {
	if diags := loadSynth(t, ""); len(diags) != 0 {
		t.Fatalf("fully-keyed synthetic Scenario should be clean, got %v", diags)
	}
	// Any exported field name must trip the analyzer; a few shapes stand
	// in for "whatever the next contributor calls it".
	for _, field := range []struct{ name, typ string }{
		{"Stride", "int64"},
		{"SkipVerify", "bool"},
		{"RefreshNS", "float64"},
		{"Labels", "[]string"},
	} {
		t.Run(field.name, func(t *testing.T) {
			insert := fmt.Sprintf("\t%s %s\n", field.name, field.typ)
			diags := loadSynth(t, insert)
			if len(diags) != 1 {
				t.Fatalf("inserted field %s: want exactly 1 finding, got %d: %v", field.name, len(diags), diags)
			}
			want := "Scenario." + field.name
			if !strings.Contains(diags[0].Message, want) {
				t.Fatalf("finding %q does not name %s", diags[0].Message, want)
			}
		})
	}
	// The audited opt-out must silence it.
	if diags := loadSynth(t, "\t// rdlint:nocanon\n\tDebug bool\n"); len(diags) != 0 {
		t.Fatalf("rdlint:nocanon field should be exempt, got %v", diags)
	}
	// Unexported fields are not part of the key domain.
	if diags := loadSynth(t, "\ttrace []byte\n"); len(diags) != 0 {
		t.Fatalf("unexported field should be exempt, got %v", diags)
	}
}
