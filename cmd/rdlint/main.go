// Command rdlint runs the repo's static-analysis suite — the
// per-function checks (determinism, maprange, wiretag) and the dataflow
// tier built on the module call graph (canoncheck, lockcheck, ctxcheck,
// hotalloc) — over every package named by its arguments (./... by
// default). It exits 0 when the tree is clean, 1 on any finding, and 2
// on usage or load errors. See docs/STATIC_ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"rdramstream/internal/lint"
	"rdramstream/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is rdlint's own -json output row (tool output, not part
// of the simulator's wire format).
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut     = fs.Bool("json", false, "emit findings as a JSON array instead of file:line lines")
		runList     = fs.String("run", "", "comma-separated analyzers to run (default: all)")
		statsOut    = fs.Bool("stats", false, "print a JSON run summary (per-analyzer findings and wall time, call-graph size) to stderr")
		showVersion = fs.Bool("version", false, "print the build identity stamp and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rdlint [flags] [packages]\n\n")
		fmt.Fprintf(stderr, "Packages default to ./... relative to the current directory.\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "rdlint "+version.Stamp())
		return 0
	}

	analyzers, err := lint.Select(*runList)
	if err != nil {
		fmt.Fprintln(stderr, "rdlint:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "rdlint:", err)
		return 2
	}
	root, modPath, err := lint.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "rdlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.Expand(root, cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "rdlint:", err)
		return 2
	}
	pkgs, err := lint.Load(root, modPath, dirs)
	if err != nil {
		fmt.Fprintln(stderr, "rdlint:", err)
		return 2
	}
	diags, stats := lint.Run(pkgs, analyzers)
	if *statsOut {
		enc := json.NewEncoder(stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fmt.Fprintln(stderr, "rdlint:", err)
			return 2
		}
	}
	if *jsonOut {
		rows := make([]jsonDiagnostic, len(diags))
		for i, d := range diags {
			rows[i] = jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintln(stderr, "rdlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "rdlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
