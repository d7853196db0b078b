// Core-simulator speed benchmark (-bench-core): times the pinned
// hot-path scenarios of bench_test.go on the current build and writes
// BENCH_core_speed.json comparing each against its baseline — the same
// scenario timed at the row's baseline commit, the last one before the
// change the row pins (see docs/PERFORMANCE.md).
//
// With -check <file> it instead re-times the scenarios and exits
// non-zero if a gated one regresses more than 2x over the committed
// afterNsPerOp, or if any one allocates more per run than its committed
// afterAllocsPerOp — the CI backstop that keeps the speedups from
// silently eroding. Only the multi-ms scenarios are time-gated — the
// long streams, timing-only and verified (under PI and CLI) for each of
// the SMC and natural order, timing-only for the conventional
// controller, and a reordered trace replay under PI and under CLI: at
// several ms/run their min-of-N timing is stable on shared CI runners,
// where the sub-ms scenarios are not. Allocation counts are exact, so
// every row is allocation-gated.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"rdramstream"
)

// coreCase is one pinned scenario plus its baseline.
type coreCase struct {
	name     string
	desc     string
	sc       rdramstream.Scenario
	baseline string // commit the before numbers were measured at
	beforeNs int64  // min wall ns/run at baseline
	beforeAl int64  // heap allocations/run at baseline
	gate     bool   // include in the -check CI regression gate
}

// The baseline commits of coreCases.
const (
	// mapStoreCommit is the parent of the page-table functional store,
	// with map-backed device pages and a map-backed seed/verify shadow.
	mapStoreCommit = "f7f3178"
	// mapCaptureCommit is the parent of the paged store-value image, with
	// natural order capturing its store values in hash maps, even on
	// timing-only devices.
	mapCaptureCommit = "951388d"
	// guardCommit is where the conventional and trace-replay rows were
	// first timed. They pin no speedup; their before and after are the
	// same code, and they exist for the -check regression gate.
	guardCommit = "1a11d30"
	// runCursorCommit is the parent of the per-stripe functional harness,
	// whose memory cursor mapped once per run of contiguous words (one
	// cacheline under CLI) and whose seed, golden replay, store capture
	// and verify moved one word at a time.
	runCursorCommit = "22f3daf"
	// stripeLocCommit is the parent of the per-line trace replay, whose
	// Cursor.Loc looked addresses up in its stripe cache, whose replay
	// mapped and built a request per packet, and whose reorder window
	// scanned for row hits under CLI, where auto-precharge leaves none.
	stripeLocCommit = "71c709d"
)

// coreCases pins the scenarios and their baselines, measured at each
// row's baseline commit on the same benchmark definitions: the min over
// two -bench-core -bench-iters 35 invocations, one just before and one
// just after the run that wrote the committed file (the host's speed
// drifts over minutes), allocs via MemStats after a pool-warming run.
func coreCases() []coreCase {
	return []coreCase{
		{
			name: "SMCCopy1024",
			desc: "copy n=1024 CLI/smc fifo=128 staggered",
			sc: rdramstream.Scenario{
				KernelName: "copy", N: 1024, Scheme: rdramstream.CLI,
				Mode: rdramstream.SMC, FIFODepth: 128,
				Placement: rdramstream.Staggered, SkipVerify: true,
			},
			baseline: mapStoreCommit, beforeNs: 227_522, beforeAl: 22,
		},
		{
			name: "NaturalOrderDaxpy1024",
			desc: "daxpy n=1024 PI/natural staggered",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 1024, Scheme: rdramstream.PI,
				Mode:      rdramstream.NaturalOrder,
				Placement: rdramstream.Staggered, SkipVerify: true,
			},
			baseline: mapStoreCommit, beforeNs: 348_308, beforeAl: 33,
		},
		{
			name: "SMCLongVector",
			desc: "daxpy n=65536 PI/smc fifo=128 staggered",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI,
				Mode: rdramstream.SMC, FIFODepth: 128,
				Placement: rdramstream.Staggered, SkipVerify: true,
			},
			baseline: mapStoreCommit, beforeNs: 15_362_761, beforeAl: 24,
			gate: true,
		},
		{
			name: "SMCLongVectorVerified",
			desc: "daxpy n=65536 PI/smc fifo=128 staggered, verified",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI,
				Mode: rdramstream.SMC, FIFODepth: 128,
				Placement: rdramstream.Staggered,
			},
			baseline: mapStoreCommit, beforeNs: 59_365_577, beforeAl: 126,
			gate: true,
		},
		{
			name: "NaturalOrderLongVector",
			desc: "daxpy n=65536 PI/natural staggered",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI,
				Mode:      rdramstream.NaturalOrder,
				Placement: rdramstream.Staggered, SkipVerify: true,
			},
			baseline: mapCaptureCommit, beforeNs: 18_388_903, beforeAl: 536,
			gate: true,
		},
		{
			name: "NaturalOrderLongVectorVerified",
			desc: "daxpy n=65536 PI/natural staggered, verified",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI,
				Mode:      rdramstream.NaturalOrder,
				Placement: rdramstream.Staggered,
			},
			baseline: mapCaptureCommit, beforeNs: 29_503_748, beforeAl: 537,
			gate: true,
		},
		{
			name: "NaturalOrderLongVectorVerifiedCLI",
			desc: "daxpy n=65536 CLI/natural staggered, verified",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.CLI,
				Mode:      rdramstream.NaturalOrder,
				Placement: rdramstream.Staggered,
			},
			baseline: runCursorCommit, beforeNs: 15_037_464, beforeAl: 22,
			gate: true,
		},
		{
			name: "SMCLongVectorVerifiedCLI",
			desc: "daxpy n=65536 CLI/smc fifo=128 staggered, verified",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.CLI,
				Mode: rdramstream.SMC, FIFODepth: 128,
				Placement: rdramstream.Staggered,
			},
			baseline: runCursorCommit, beforeNs: 14_901_302, beforeAl: 21,
			gate: true,
		},
		{
			name: "ConventionalLongVector",
			desc: "daxpy n=65536 PI/conventional staggered",
			sc: rdramstream.Scenario{
				KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI,
				Controller: "conventional",
				Placement:  rdramstream.Staggered, SkipVerify: true,
			},
			baseline: guardCommit, beforeNs: 5_215_785, beforeAl: 16,
			gate: true,
		},
		{
			name: "TraceReplayKVCacheSMC",
			desc: "llm-kvcache n=65536 ctxrows=32 seed 7, PI/smc fifo=64 reordered replay",
			sc: rdramstream.Scenario{
				Workload: &rdramstream.TraceSpec{Program: &rdramstream.TraceProgram{
					Name: "llm-kvcache", Seed: 7, Phases: []rdramstream.TracePhase{
						{Pattern: "llm-kvcache", Accesses: 65536, ContextRows: 32},
					},
				}},
				Scheme: rdramstream.PI, Mode: rdramstream.SMC, FIFODepth: 64,
			},
			baseline: guardCommit, beforeNs: 2_938_800, beforeAl: 44,
			gate: true,
		},
		{
			name: "TraceReplayKVCacheCLI",
			desc: "llm-kvcache n=65536 ctxrows=32 seed 7, CLI/smc fifo=64 reordered replay",
			sc: rdramstream.Scenario{
				Workload: &rdramstream.TraceSpec{Program: &rdramstream.TraceProgram{
					Name: "llm-kvcache", Seed: 7, Phases: []rdramstream.TracePhase{
						{Pattern: "llm-kvcache", Accesses: 65536, ContextRows: 32},
					},
				}},
				Scheme: rdramstream.CLI, Mode: rdramstream.SMC, FIFODepth: 64,
			},
			baseline: stripeLocCommit, beforeNs: 4_445_744, beforeAl: 44,
			gate: true,
		},
	}
}

// coreEntry is one before/after comparison in BENCH_core_speed.json.
type coreEntry struct {
	Name              string  `json:"name"`
	Scenario          string  `json:"scenario"`
	BaselineCommit    string  `json:"baselineCommit"`
	BeforeNsPerOp     int64   `json:"beforeNsPerOp"`
	BeforeAllocsPerOp int64   `json:"beforeAllocsPerOp"`
	AfterNsPerOp      int64   `json:"afterNsPerOp"`
	AfterAllocsPerOp  int64   `json:"afterAllocsPerOp"`
	Speedup           float64 `json:"speedup"`
	RegressionGate    bool    `json:"regressionGate"`
}

// coreReport is the BENCH_core_speed.json schema.
type coreReport struct {
	Iterations int         `json:"iterations"`
	Scenarios  []coreEntry `json:"scenarios"`
	Note       string      `json:"note"`
}

// timeCore returns the minimum wall time over iters runs — the
// least-noise estimator for a deterministic simulation.
func timeCore(sc rdramstream.Scenario, iters int) int64 {
	best := int64(0)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := rdramstream.Simulate(sc); err != nil {
			fatalf("bench-core: %v", err)
		}
		d := time.Since(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// allocsCore measures heap allocations per run via MemStats deltas: the
// fewest any of a few runs made, after a warm-up run fills the scratch
// pools, with the collector paused so a collection cannot empty a pool
// mid-measurement. That is the steady-state (sweep-loop) count, exact
// enough for -check to gate on.
func allocsCore(sc rdramstream.Scenario) int64 {
	if _, err := rdramstream.Simulate(sc); err != nil {
		fatalf("bench-core: %v", err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const iters = 3
	best := int64(-1)
	for i := 0; i < iters; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := rdramstream.Simulate(sc); err != nil {
			fatalf("bench-core: %v", err)
		}
		runtime.ReadMemStats(&m1)
		if n := int64(m1.Mallocs - m0.Mallocs); best < 0 || n < best {
			best = n
		}
	}
	return best
}

// runCoreBench times every pinned scenario and writes the comparison.
func runCoreBench(iters int, outPath string) {
	if iters < 1 {
		iters = 1
	}
	rep := coreReport{
		Iterations: iters,
		Note: "before = the row's baseline commit: " + mapStoreCommit + " has " +
			"map-backed device pages and a map-backed seed/verify shadow; " +
			mapCaptureCommit + " has natural order capturing store values in hash " +
			"maps, timing-only runs included; " + guardCommit + " is where the " +
			"conventional and trace-replay rows were first timed (regression " +
			"guards, no speedup pinned); " + runCursorCommit + " has a memory " +
			"cursor that maps once per run of contiguous words and a " +
			"word-at-a-time seed, golden replay, store capture and verify; " +
			stripeLocCommit + " has a memory cursor that looks each address " +
			"up in its stripe cache and a trace replay that maps and builds a " +
			"request per packet and scans for row hits under CLI. " +
			"after = current build, with the page-table functional store, one " +
			"paged word image for seed/verify and store capture, a memory " +
			"cursor whose Loc is arithmetic and whose stripes cache pages " +
			"only, a functional harness that walks stripes in chunks, an SMC " +
			"that plans packets on demand, mapping once per interleave unit, " +
			"behind a timing-only processor front end, and a trace replay " +
			"that maps once per line transaction. ns/op is the min wall time over the " +
			"timed iterations; allocs/op is the steady-state MemStats.Mallocs " +
			"delta per run after a pool-warming iteration, the fewest of three " +
			"runs with the collector paused. See docs/PERFORMANCE.md.",
	}
	for _, c := range coreCases() {
		timeCore(c.sc, 1) // warm-up
		ns := timeCore(c.sc, iters)
		al := allocsCore(c.sc)
		rep.Scenarios = append(rep.Scenarios, coreEntry{
			Name: c.name, Scenario: c.desc, BaselineCommit: c.baseline,
			BeforeNsPerOp: c.beforeNs, BeforeAllocsPerOp: c.beforeAl,
			AfterNsPerOp: ns, AfterAllocsPerOp: al,
			Speedup:        float64(c.beforeNs) / float64(ns),
			RegressionGate: c.gate,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatalf("%v", err)
	}
	for _, e := range rep.Scenarios {
		fmt.Printf("%-30s before %9d ns %7d allocs, after %9d ns %5d allocs (%.1fx)\n",
			e.Name, e.BeforeNsPerOp, e.BeforeAllocsPerOp, e.AfterNsPerOp, e.AfterAllocsPerOp, e.Speedup)
	}
	fmt.Printf("-> %s\n", outPath)
}

// checkCoreBench re-times the pinned scenarios against a committed
// BENCH_core_speed.json. It fails when a gated scenario runs >2x slower
// than its committed ns/op, or when any scenario allocates more per run
// than its committed allocs/op: allocation counts are exact, so that
// gate holds on every row, even where timings are too noisy to gate.
func checkCoreBench(path string, iters int) {
	if iters < 1 {
		iters = 1
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("bench-core check: %v", err)
	}
	var rep coreReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fatalf("bench-core check: %s: %v", path, err)
	}
	committed := make(map[string]coreEntry, len(rep.Scenarios))
	for _, e := range rep.Scenarios {
		committed[e.Name] = e
	}
	failed := false
	for _, c := range coreCases() {
		e, ok := committed[c.name]
		if !ok {
			fatalf("bench-core check: %s missing scenario %s (regenerate with -bench-core)", path, c.name)
		}
		timeCore(c.sc, 1) // warm-up
		ns := timeCore(c.sc, iters)
		ratio := float64(ns) / float64(e.AfterNsPerOp)
		status := "info"
		if c.gate {
			status = "ok"
			if ratio > 2 {
				status = "REGRESSION"
				failed = true
			}
		}
		al := allocsCore(c.sc)
		alStatus := "ok"
		if al > e.AfterAllocsPerOp {
			alStatus = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Printf("%-30s committed %9d ns, now %9d ns (%.2fx) [%s]; allocs committed %d, now %d [%s]\n",
			c.name, e.AfterNsPerOp, ns, ratio, status, e.AfterAllocsPerOp, al, alStatus)
	}
	if failed {
		fatalf("bench-core check: a scenario regressed (>2x ns/op on a gated row, or allocs/op above committed) vs %s", path)
	}
}
