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
// controller, and the reordered trace replays (llm-kvcache under PI and
// under CLI, a chase that mostly misses its rows under PI): at several
// ms/run their min-of-N timing is stable on shared CI runners, where
// the sub-ms scenarios are not. Allocation counts are exact, so
// every row is allocation-gated. Two rows time a warm cache hit instead
// of a simulation: through the service in process (BenchmarkServiceHit)
// and over loopback HTTP with the Go client (BenchmarkHTTPHit). Each of
// their iterations times thousands or hundreds of hits, and their
// min-of-N per-hit times stayed within 1.2x across invocations, so they
// are time-gated too.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"rdramstream"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
)

// coreCase is one pinned scenario plus its baseline.
type coreCase struct {
	name string
	desc string
	sc   rdramstream.Scenario
	// hit, when set, replaces sc: it starts a server holding a warm cache
	// entry and returns one cache hit, the number of hits an iteration
	// times (a hit takes microseconds) and the function that stops the
	// server.
	hit      func() (op func(), reps int, stop func())
	baseline string // commit the before numbers were measured at
	beforeNs int64  // min wall ns/run at baseline
	beforeAl int64  // heap allocations/run at baseline
	gate     bool   // include in the -check CI regression gate
}

// open returns the case's timed operation, how many of them one timed
// iteration runs, and the function that releases what it holds.
func (c coreCase) open() (op func(), reps int, stop func()) {
	if c.hit != nil {
		return c.hit()
	}
	return func() {
		if _, err := rdramstream.Simulate(c.sc); err != nil {
			fatalf("bench-core: %v", err)
		}
	}, 1, func() {}
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
	// jsonHitCommit is the parent of the allocation-free hit path, whose
	// /v1/simulate request and response bodies went through
	// encoding/json and whose one-scenario jobs were built like sweeps.
	jsonHitCommit = "10f59fe"
	// scanReorderCommit is the parent of the indexed reorder window,
	// whose reordered replay built the whole transaction list up front
	// and walked the window for a row hit on every issue, and whose trace
	// runs expanded every program into a buffer of its own.
	scanReorderCommit = "1be6361"
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
		{
			name: "TraceReplayChasePI",
			desc: "chase n=65536 seed 7, PI/smc fifo=32 reordered replay",
			sc: rdramstream.Scenario{
				Workload: &rdramstream.TraceSpec{Program: &rdramstream.TraceProgram{
					Name: "chase", Seed: 7, Phases: []rdramstream.TracePhase{
						{Pattern: "chase", Accesses: 65536},
					},
				}},
				Scheme: rdramstream.PI, Mode: rdramstream.SMC, FIFODepth: 32,
			},
			baseline: scanReorderCommit, beforeNs: 8_802_324, beforeAl: 9,
			gate: true,
		},
		{
			name:     "ServiceHit",
			desc:     "warm cache hit: Service.SubmitOne + WaitResult, daxpy n=256 PI/smc",
			hit:      serviceHit,
			baseline: jsonHitCommit, beforeNs: 6_665, beforeAl: 15,
			gate: true,
		},
		{
			name:     "HTTPHit",
			desc:     "warm cache hit: client.Simulate over loopback HTTP, daxpy n=256 PI/smc",
			hit:      httpHit,
			baseline: jsonHitCommit, beforeNs: 131_949, beforeAl: 144,
			gate: true,
		},
	}
}

// hitScenario is the scenario of the hit rows, the one BenchmarkServiceHit
// and BenchmarkHTTPHit hit.
var hitScenario = rdramstream.Scenario{
	KernelName: "daxpy", N: 256, Scheme: rdramstream.PI, Mode: rdramstream.SMC,
	FIFODepth: 32, Placement: rdramstream.Staggered,
}

// serviceHit is BenchmarkServiceHit's operation: one memory hit answered
// at submit, through Service.SubmitOne and Job.WaitResult.
func serviceHit() (func(), int, func()) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		fatalf("bench-core: %v", err)
	}
	ctx := context.Background()
	hit := func() bool {
		job, err := svc.SubmitOne(ctx, hitScenario)
		if err != nil {
			fatalf("bench-core: %v", err)
		}
		res, err := job.WaitResult(ctx, 0)
		if err == nil && res.Error != "" {
			err = errors.New(res.Error)
		}
		if err != nil {
			fatalf("bench-core: %v", err)
		}
		return res.Cached
	}
	hit() // the miss that fills the cache
	return func() {
		if !hit() {
			fatalf("bench-core: a warm service request missed the cache")
		}
	}, 2000, func() { svc.Close(ctx) }
}

// httpHit is BenchmarkHTTPHit's operation: one hit end to end over
// loopback HTTP, client encode and decode included, on one kept-alive
// connection.
func httpHit() (func(), int, func()) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		fatalf("bench-core: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("bench-core: %v", err)
	}
	srv := &http.Server{Handler: service.NewHandler(svc)}
	go srv.Serve(ln)
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	cl := client.New("http://" + ln.Addr().String())
	cl.HTTPClient = &http.Client{Transport: tp}
	ctx := context.Background()
	hit := func() bool {
		resp, err := cl.Simulate(ctx, hitScenario)
		if err != nil {
			fatalf("bench-core: %v", err)
		}
		return resp.Cached
	}
	hit() // the miss that fills the cache
	return func() {
			if !hit() {
				fatalf("bench-core: a warm HTTP request missed the cache")
			}
		}, 200, func() {
			tp.CloseIdleConnections()
			srv.Shutdown(ctx)
			svc.Close(ctx)
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

// timeCore returns the minimum over iters iterations of the wall time
// per op of reps back-to-back ops — the least-noise estimator for a
// deterministic simulation.
func timeCore(op func(), reps, iters int) int64 {
	best := int64(0)
	for i := 0; i < iters; i++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			op()
		}
		d := time.Since(start).Nanoseconds() / int64(reps)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// allocsCore measures heap allocations per op via MemStats deltas (every
// goroutine's, so a hit's server side counts too): the fewest any of a
// few runs of reps ops made per op, rounded to the nearest count, after a
// warm-up op fills the scratch pools, with the collector paused so a
// collection cannot empty a pool mid-measurement. That is the
// steady-state (sweep-loop) count, exact enough for -check to gate on.
func allocsCore(op func(), reps int) int64 {
	op()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const iters = 3
	best := int64(-1)
	for i := 0; i < iters; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < reps; r++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		if n := (int64(m1.Mallocs-m0.Mallocs) + int64(reps)/2) / int64(reps); best < 0 || n < best {
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
			"request per packet and scans for row hits under CLI; " +
			jsonHitCommit + " decodes hit request and response bodies with " +
			"encoding/json and builds one-scenario jobs like sweeps; " +
			scanReorderCommit + " builds a reordered replay's whole " +
			"transaction list up front, walks the window for a row hit on " +
			"every issue and expands every trace program into a buffer of " +
			"its own. " +
			"after = current build, with the page-table functional store, one " +
			"paged word image for seed/verify and store capture, a memory " +
			"cursor whose Loc is arithmetic and whose stripes cache pages " +
			"only, a functional harness that walks stripes in chunks, an SMC " +
			"that plans packets on demand, mapping once per interleave unit, " +
			"behind a timing-only processor front end, a trace replay " +
			"that maps once per line transaction and reorders through an " +
			"indexed window fed on demand, trace programs expanded into a " +
			"reused buffer, and a hit path that reads " +
			"its bodies without encoding/json. ServiceHit and HTTPHit time one " +
			"warm cache hit, in process and over loopback HTTP; their counts " +
			"include the server's and the client's allocations. ns/op is the " +
			"min wall time per op over the timed iterations; allocs/op is the " +
			"steady-state MemStats.Mallocs delta per op after a pool-warming " +
			"op, the fewest of three runs with the collector paused. " +
			"See docs/PERFORMANCE.md.",
	}
	for _, c := range coreCases() {
		op, reps, stop := c.open()
		timeCore(op, reps, 1) // warm-up
		ns := timeCore(op, reps, iters)
		al := allocsCore(op, reps)
		stop()
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
		op, reps, stop := c.open()
		timeCore(op, reps, 1) // warm-up
		ns := timeCore(op, reps, iters)
		ratio := float64(ns) / float64(e.AfterNsPerOp)
		status := "info"
		if c.gate {
			status = "ok"
			if ratio > 2 {
				status = "REGRESSION"
				failed = true
			}
		}
		al := allocsCore(op, reps)
		stop()
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
