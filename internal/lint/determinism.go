package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// corePackages names the simulation-core packages (by package name) where
// every source of nondeterminism is forbidden. The reproduction's claims
// — golden parity, serial-vs-parallel byte identity, content-addressed
// cache keys, the fault injector's fixed draw discipline — all assume a
// run is a pure function of its Scenario; one wall-clock read or global
// RNG draw in these packages silently breaks all of them.
var corePackages = map[string]bool{
	"rdram":       true,
	"smc":         true,
	"natorder":    true,
	"engine":      true,
	"sim":         true,
	"fault":       true,
	"resultcache": true,
	// The fabric shard ring: assignment must be a pure function of
	// (members, key) so the same scenario always hashes to the same
	// worker. Wall-clock health bookkeeping lives one package up, in
	// fabric, which is deliberately NOT core.
	"shard": true,
	// The trace generator: a Program must expand to the same trace on
	// every machine, every run — its digest is a cache key and a fabric
	// shard key. One clock read or global-rand draw would silently split
	// the cache and break replay byte-identity.
	"tracegen": true,
	// The trace replay path (ReplayTrace) and the generated workloads
	// (Run): schedules must be pure functions of the access list (or
	// seed) and options.
	"workload": true,
	// Everything else a run executes: address mapping, the processor and
	// cache models, stream layout, the loop compiler, the FPM controllers,
	// the analytic bounds, the always-on stall attribution and probes,
	// and the protocol checker behind -check.
	"addrmap":   true,
	"analytic":  true,
	"cache":     true,
	"compiler":  true,
	"cpu":       true,
	"fpm":       true,
	"stream":    true,
	"telemetry": true,
	"trace":     true,
}

// bannedFuncs maps fully qualified function names to the reason they are
// forbidden in the simulation core.
var bannedFuncs = map[string]string{
	"time.Now":       "wall-clock reads make runs irreproducible",
	"time.Since":     "wall-clock reads make runs irreproducible",
	"time.Until":     "wall-clock reads make runs irreproducible",
	"time.Sleep":     "real-time waits have no place in simulated time",
	"time.After":     "real-time waits have no place in simulated time",
	"time.Tick":      "real-time waits have no place in simulated time",
	"time.NewTimer":  "real-time waits have no place in simulated time",
	"time.NewTicker": "real-time waits have no place in simulated time",
	"os.Getenv":      "environment reads make outcomes host-dependent",
	"os.LookupEnv":   "environment reads make outcomes host-dependent",
	"os.Environ":     "environment reads make outcomes host-dependent",
}

// randAllowed lists the math/rand package-level functions that are fine:
// constructing an explicitly seeded generator is the required idiom, and
// the zipf constructor takes such a generator.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Determinism forbids wall-clock time, environment reads, and the global
// math/rand generator inside the simulation core. Explicitly seeded
// generators (rand.New(rand.NewSource(seed))) remain legal — that is the
// discipline internal/fault documents as exactly-4-draws-per-access.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now/global rand/os.Getenv in the simulation core",
	Run:  runDeterminism,
}

func runDeterminism(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		if !corePackages[p.Types.Name()] {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods are out of scope; only package funcs are banned
				}
				qual := fn.Pkg().Path() + "." + fn.Name()
				if why, banned := bannedFuncs[qual]; banned {
					diags = append(diags, Diagnostic{
						Pos:     p.pos(sel),
						Message: fmt.Sprintf("%s in simulation core package %q: %s", qual, p.Types.Name(), why),
					})
					return true
				}
				if fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2" {
					if !randAllowed[fn.Name()] {
						diags = append(diags, Diagnostic{
							Pos: p.pos(sel),
							Message: fmt.Sprintf("global %s.%s in simulation core package %q: draws from the shared generator are seed-independent; use rand.New(rand.NewSource(seed))",
								fn.Pkg().Path(), fn.Name(), p.Types.Name()),
						})
					}
				}
				return true
			})
		}
	}
	return diags
}
