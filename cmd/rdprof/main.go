// Command rdprof runs one scenario with full cycle-level telemetry and
// emits an analysis bundle:
//
//	<out>/metrics.json    counters, stall-cause attribution, histograms
//	<out>/timeseries.csv  per-window bus occupancy, bandwidth, FIFO depths
//	<out>/events.jsonl    raw instrumentation events, one JSON per line
//	<out>/trace.json      Chrome trace-event JSON (Perfetto, chrome://tracing)
//
// It also prints a stall-attribution summary: where every idle DATA-bus
// cycle went, in the taxonomy of docs/OBSERVABILITY.md.
//
// Examples:
//
//	rdprof -kernel daxpy -n 1024 -mode smc -scheme pi -fifo 128 -out profile
//	rdprof -kernel hydro -mode natural -scheme cli -window 128
//	rdprof -bench -bench-out BENCH_telemetry.json
//	rdprof -bench-core -bench-core-out BENCH_core_speed.json
//	rdprof -check BENCH_core_speed.json
//
// The -bench mode measures telemetry overhead instead: it times the
// daxpy/SMC/PI scenario with telemetry off and on and writes a JSON
// comparison (the repo's BENCH_telemetry.json is produced this way).
// The -bench-core mode times the pinned hot-path scenarios against the
// baselines and writes BENCH_core_speed.json; -check
// re-times the gated scenarios against a committed copy and fails on a
// >2x regression (the CI backstop).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rdramstream"
	"rdramstream/internal/version"
)

func main() {
	kernel := flag.String("kernel", "daxpy", "benchmark kernel: copy, daxpy, hydro, vaxpy")
	n := flag.Int("n", 1024, "stream length in 64-bit elements")
	stride := flag.Int64("stride", 1, "element stride in 64-bit words")
	scheme := flag.String("scheme", "pi", "memory organization: cli (closed page) or pi (open page)")
	mode := flag.String("mode", "smc", "controller: smc or natural")
	fifo := flag.Int("fifo", 128, "SMC FIFO depth in elements")
	policy := flag.String("policy", "roundrobin", "MSU policy: roundrobin, bankaware, or hitfirst")
	placement := flag.String("placement", "staggered", "vector placement: staggered or aligned")
	speculate := flag.Bool("speculate", false, "enable speculative page activation (SMC, PI)")
	writeAlloc := flag.Bool("writealloc", false, "natural-order: fetch store-missed lines, write back on eviction")
	seed := flag.Int64("seed", 1, "data pattern seed")
	window := flag.Int64("window", 256, "time-series window in cycles")
	outDir := flag.String("out", "profile", "output directory for the telemetry bundle")
	bench := flag.Bool("bench", false, "measure telemetry overhead instead of profiling")
	benchOut := flag.String("bench-out", "BENCH_telemetry.json", "output file for -bench")
	benchIters := flag.Int("bench-iters", 7, "timed iterations per configuration for -bench")
	benchCore := flag.Bool("bench-core", false, "measure core simulator speed against the pinned baselines")
	benchCoreOut := flag.String("bench-core-out", "BENCH_core_speed.json", "output file for -bench-core")
	checkCore := flag.String("check", "", "re-time the gated scenarios against this committed BENCH_core_speed.json and fail on a >2x regression")
	offOverhead := flag.Float64("off-overhead-pct", 0, "record this externally measured telemetry-off-vs-uninstrumented overhead percentage in the -bench output")
	showVersion := flag.Bool("version", false, "print the version stamp and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Stamp())
		return
	}

	sc := rdramstream.Scenario{
		KernelName:        *kernel,
		N:                 *n,
		Stride:            *stride,
		FIFODepth:         *fifo,
		SpeculateActivate: *speculate,
		WriteAllocate:     *writeAlloc,
		Seed:              *seed,
		Device:            rdramstream.DefaultDevice(),
	}
	var err error
	if sc.Scheme, err = rdramstream.ParseInterleave(*scheme); err != nil {
		fatalf("%v", err)
	}
	switch strings.ToLower(*mode) {
	case "smc":
		sc.Mode = rdramstream.SMC
	case "natural", "natural-order", "cache":
		sc.Mode = rdramstream.NaturalOrder
	default:
		fatalf("unknown mode %q (want smc or natural)", *mode)
	}
	switch strings.ToLower(*policy) {
	case "roundrobin", "round-robin", "rr":
		sc.Policy = rdramstream.RoundRobin
	case "bankaware", "bank-aware", "ba":
		sc.Policy = rdramstream.BankAware
	case "hitfirst", "hit-first", "hf":
		sc.Policy = rdramstream.HitFirst
	default:
		fatalf("unknown policy %q", *policy)
	}
	switch strings.ToLower(*placement) {
	case "staggered":
		sc.Placement = rdramstream.Staggered
	case "aligned":
		sc.Placement = rdramstream.Aligned
	default:
		fatalf("unknown placement %q", *placement)
	}

	if *checkCore != "" {
		checkCoreBench(*checkCore, *benchIters)
		return
	}
	if *benchCore {
		runCoreBench(*benchIters, *benchCoreOut)
		return
	}
	if *bench {
		runBench(sc, *benchIters, *benchOut, *offOverhead)
		return
	}

	col := rdramstream.NewTelemetry(rdramstream.TelemetryOptions{
		Window:        *window,
		CaptureEvents: true,
	})
	sc.Telemetry = col
	out, err := rdramstream.Simulate(sc)
	if err != nil {
		fatalf("%v", err)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	files := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"metrics.json", col.WriteMetricsJSON},
		{"timeseries.csv", col.WriteSeriesCSV},
		{"events.jsonl", col.WriteEventsJSONL},
		{"trace.json", col.WriteChromeTrace},
	}
	for _, f := range files {
		if err := writeFile(filepath.Join(*outDir, f.name), f.fn); err != nil {
			fatalf("%s: %v", f.name, err)
		}
	}

	printSummary(sc, out, col)
	fmt.Printf("\nbundle written to %s/ (metrics.json, timeseries.csv, events.jsonl, trace.json)\n", *outDir)
	fmt.Println("open trace.json at https://ui.perfetto.dev or chrome://tracing (1 trace µs = 1 cycle)")
}

// printSummary renders the headline numbers and the stall-attribution
// table: every idle DATA-bus cycle charged to one cause.
func printSummary(sc rdramstream.Scenario, out rdramstream.Outcome, col *rdramstream.Telemetry) {
	rep := col.Report()
	fmt.Printf("kernel      %s (n=%d stride=%d), %v / %v\n",
		sc.KernelName, sc.N, sc.Stride, sc.Scheme, sc.Mode)
	fmt.Printf("cycles      %d, bandwidth %.2f%% of peak (%.0f MB/s)\n",
		out.Cycles, out.PercentPeak, out.EffectiveMBps)
	fmt.Printf("data bus    busy %d cycles, idle %d cycles (%.1f%% utilization)\n",
		rep.DataBusBusy, rep.IdleCycles, 100*float64(rep.DataBusBusy)/float64(max(out.Cycles, 1)))

	type kv struct {
		name string
		v    int64
	}
	var stalls []kv
	for name, v := range rep.Stalls {
		stalls = append(stalls, kv{name, v})
	}
	sort.Slice(stalls, func(i, j int) bool {
		if stalls[i].v != stalls[j].v {
			return stalls[i].v > stalls[j].v
		}
		return stalls[i].name < stalls[j].name // ties must not follow map order
	})
	fmt.Println("\nidle DATA-bus cycles by cause:")
	for _, s := range stalls {
		fmt.Printf("  %-12s %8d  (%5.1f%% of idle)\n", s.name, s.v, 100*float64(s.v)/float64(max(rep.IdleCycles, 1)))
	}

	if len(rep.FIFOs) > 0 {
		fmt.Println("\nFIFOs:")
		for _, f := range rep.FIFOs {
			fmt.Printf("  %-16s %5d packets, full-stalls %d (%d cyc), empty-stalls %d (%d cyc)\n",
				f.Name, f.Serviced, f.FullStalls, f.FullStallCycles, f.EmptyStalls, f.EmptyStallCycles)
		}
	}
	if rep.MissLatencyAvg > 0 {
		var fetches int64
		for _, b := range rep.MissLatency {
			fetches += b.Count
		}
		fmt.Printf("\nmiss latency: mean %.1f cycles over %d fetches\n",
			rep.MissLatencyAvg, fetches)
	}
	if rep.CPUStallCycles > 0 {
		fmt.Printf("cpu stalls  %d cycles blocked on FIFO heads\n", rep.CPUStallCycles)
	}
	if rep.EventsTruncated {
		fmt.Println("note: event capture hit its buffer limit; trace.json/events.jsonl are truncated")
	}
}

// benchEntry is one off-vs-on timing comparison for a scenario.
type benchEntry struct {
	Name       string  `json:"name"`
	OffNsPerOp int64   `json:"telemetryOffNsPerOp"`
	OnNsPerOp  int64   `json:"telemetryOnNsPerOp"`
	OverheadPc float64 `json:"telemetryOnOverheadPercent"`
}

// benchReport is the BENCH_telemetry.json schema. The headline entry is
// the canonical daxpy/SMC/PI scenario; ExistingBenchmarks covers the
// scenarios of the repo's long-standing bench_test.go simulations.
type benchReport struct {
	Scenario   string  `json:"scenario"`
	Iterations int     `json:"iterations"`
	OffNsPerOp int64   `json:"telemetryOffNsPerOp"`
	OnNsPerOp  int64   `json:"telemetryOnNsPerOp"`
	OverheadPc float64 `json:"telemetryOnOverheadPercent"`

	ExistingBenchmarks []benchEntry `json:"existingBenchmarks"`

	// OffOverheadPc is the measured cost of the telemetry-off (nil
	// collector) path relative to a build without the instrumentation at
	// all. It is a cross-commit A/B measurement, so it cannot be produced
	// by this binary alone; pass it in with -off-overhead-pct (see
	// docs/OBSERVABILITY.md for the measurement recipe).
	OffOverheadPc float64 `json:"telemetryOffOverheadPercent,omitempty"`

	// TelemetryOffNote documents what "off" means: the identical code path
	// as an uninstrumented build plus one nil check per probe site.
	TelemetryOffNote string `json:"telemetryOffNote"`
}

// timeScenario returns the minimum wall time over iters runs — the
// least-noise estimator for a deterministic simulation.
func timeScenario(sc rdramstream.Scenario, iters int, withTelemetry bool) int64 {
	best := int64(0)
	for i := 0; i < iters; i++ {
		sc := sc
		sc.SkipVerify = true
		if withTelemetry {
			sc.Telemetry = rdramstream.NewTelemetry(rdramstream.TelemetryOptions{Window: 256})
		}
		start := time.Now()
		if _, err := rdramstream.Simulate(sc); err != nil {
			fatalf("bench: %v", err)
		}
		d := time.Since(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// runBench times the canonical scenario plus the bench_test.go simulation
// scenarios, each with telemetry off and on, and writes the comparison.
func runBench(sc rdramstream.Scenario, iters int, outPath string, offOverheadPc float64) {
	if iters < 1 {
		iters = 1
	}
	measure := func(name string, s rdramstream.Scenario) benchEntry {
		timeScenario(s, 1, false) // warm-up
		off := timeScenario(s, iters, false)
		on := timeScenario(s, iters, true)
		return benchEntry{
			Name: name, OffNsPerOp: off, OnNsPerOp: on,
			OverheadPc: 100 * (float64(on) - float64(off)) / float64(off),
		}
	}
	head := measure(fmt.Sprintf("%s n=%d %v/%v fifo=%d", sc.KernelName, sc.N, sc.Scheme, sc.Mode, sc.FIFODepth), sc)
	rep := benchReport{
		Scenario:   head.Name,
		Iterations: iters,
		OffNsPerOp: head.OffNsPerOp,
		OnNsPerOp:  head.OnNsPerOp,
		OverheadPc: head.OverheadPc,
		ExistingBenchmarks: []benchEntry{
			measure("SMCCopy1024", rdramstream.Scenario{
				KernelName: "copy", N: 1024, Scheme: rdramstream.CLI,
				Mode: rdramstream.SMC, FIFODepth: 128, Placement: rdramstream.Staggered,
			}),
			measure("NaturalOrderDaxpy1024", rdramstream.Scenario{
				KernelName: "daxpy", N: 1024, Scheme: rdramstream.PI,
				Mode: rdramstream.NaturalOrder, Placement: rdramstream.Staggered,
			}),
		},
		OffOverheadPc: offOverheadPc,
		TelemetryOffNote: "telemetry off runs the identical code path as an uninstrumented " +
			"build plus one nil check per probe site; see docs/OBSERVABILITY.md for the " +
			"measured off-vs-baseline comparison on the existing benchmarks",
	}
	if err := writeFile(outPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("telemetry off %d ns/run, on %d ns/run (%.2f%% overhead) -> %s\n",
		rep.OffNsPerOp, rep.OnNsPerOp, rep.OverheadPc, outPath)
	for _, e := range rep.ExistingBenchmarks {
		fmt.Printf("  %-24s off %d ns, on %d ns (%.2f%%)\n", e.Name, e.OffNsPerOp, e.OnNsPerOp, e.OverheadPc)
	}
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdprof: "+format+"\n", args...)
	os.Exit(1)
}
