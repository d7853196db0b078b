// Package lint is rdlint's engine: a stdlib-only static-analysis driver
// (go/parser + go/types, no external dependencies) that loads every
// package in the module and runs a suite of repo-specific analyzers. Each
// analyzer holds an invariant the reproduction's numbers rest on that no
// plain test can hold over the whole tree: runs that are pure functions
// of their scenario (determinism, maprange), a drift-proof wire format
// (wiretag), a complete cache key (canoncheck), mutex discipline
// (lockcheck), cancellation plumbing (ctxcheck) and an allocation-free
// hot path (hotalloc). docs/STATIC_ANALYSIS.md audits each one against
// the tests: what it holds, what it has caught, and why it stays.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a message. The driver fills Analyzer; analyzer Run functions only
// set Pos and Message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one repo-specific check. Run receives every loaded package
// at once — module-wide analyses (wiretag's reachability closure,
// maprange's writer-function set) need the whole picture, and per-package
// analyses simply iterate.
type Analyzer struct {
	// Name is the identifier used in diagnostics and -run filters.
	Name string
	// Doc is a one-line description for usage output and docs.
	Doc string
	// Run reports findings over the loaded packages. Findings must be
	// produced in a deterministic order (walk files, not maps).
	Run func(pkgs []*Package) []Diagnostic
}

// All returns the full suite in stable order: the three per-function and
// per-type checks, then the four dataflow-tier analyzers built on the
// shared call-graph substrate (see graph.go).
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, MapRange, WireTag,
		CanonCheck, LockCheck, CtxCheck, HotAlloc,
	}
}

// Select resolves a comma-separated analyzer list against All. An empty
// list selects the full suite.
func Select(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for _, k := range All() {
				known = append(known, k.Name)
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: -run selected no analyzers")
	}
	return out, nil
}

// AnalyzerStat is one analyzer's row in the -stats summary.
type AnalyzerStat struct {
	Name      string  `json:"name"`
	Findings  int     `json:"findings"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RunStats summarizes one driver invocation for `rdlint -stats` and the
// CI lint-time gate: per-analyzer counts and wall time, plus the size
// of the module call graph the dataflow tier analyzed.
type RunStats struct {
	Packages       int            `json:"packages"`
	Files          int            `json:"files"`
	CallGraphFuncs int            `json:"call_graph_funcs"`
	CallGraphEdges int            `json:"call_graph_edges"`
	AnalysisMS     float64        `json:"analysis_ms"`
	Analyzers      []AnalyzerStat `json:"analyzers"`
}

// Run executes the analyzers over the packages and returns their
// findings sorted by position, with the timing and size summary behind
// `rdlint -stats`.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *RunStats) {
	start := time.Now()
	stats := &RunStats{Packages: len(pkgs)}
	for _, p := range pkgs {
		stats.Files += len(p.Files)
	}
	g := buildCallGraph(pkgs)
	stats.CallGraphFuncs = len(g.order)
	stats.CallGraphEdges = g.edges
	var diags []Diagnostic
	for _, a := range analyzers {
		aStart := time.Now()
		found := a.Run(pkgs)
		for i := range found {
			found[i].Analyzer = a.Name
		}
		diags = append(diags, found...)
		stats.Analyzers = append(stats.Analyzers, AnalyzerStat{
			Name:      a.Name,
			Findings:  len(found),
			ElapsedMS: float64(time.Since(aStart).Microseconds()) / 1000,
		})
	}
	stats.AnalysisMS = float64(time.Since(start).Microseconds()) / 1000
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, stats
}

// pos converts a node position for diagnostics.
func (p *Package) pos(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }
