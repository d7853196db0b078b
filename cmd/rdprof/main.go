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
//	rdprof -bench-core -bench-core-out BENCH_core_speed.json
//	rdprof -check BENCH_core_speed.json
//
// The -bench-core mode times the pinned hot-path scenarios against the
// baselines and writes BENCH_core_speed.json; -check re-times the gated
// scenarios against a committed copy and fails on a >2x regression (the
// CI backstop).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
	benchIters := flag.Int("bench-iters", 7, "timed iterations per scenario for -bench-core and -check")
	benchCore := flag.Bool("bench-core", false, "measure core simulator speed against the pinned baselines")
	benchCoreOut := flag.String("bench-core-out", "BENCH_core_speed.json", "output file for -bench-core")
	checkCore := flag.String("check", "", "re-time the gated scenarios against this committed BENCH_core_speed.json and fail on a >2x regression")
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
