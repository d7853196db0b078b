// Command rdsim runs one scenario — a benchmark kernel or a generated or
// recorded trace — through the Direct RDRAM simulator and prints its
// effective bandwidth, traffic, and device activity. It is the one front
// end for single runs; two views show more of the same run:
//
//	-timeline S  the ROW/COL/DATA packet timeline at S cycles per
//	             character (the paper's Figure 5/6 view for any
//	             scenario), its bus statistics, and the protocol check
//	-profile D   the telemetry bundle, written under D:
//	               metrics.json    counters, stall-cause attribution, histograms
//	               timeseries.csv  per-window bus occupancy, bandwidth, FIFO depths
//	               events.jsonl    raw instrumentation events, one JSON per line
//	               trace.json      Chrome trace-event JSON (Perfetto, chrome://tracing)
//	             plus a summary of where every idle DATA-bus cycle went
//
// Examples:
//
//	rdsim -kernel daxpy -n 1024 -mode smc -scheme pi -fifo 128
//	rdsim -kernel vaxpy -n 1024 -stride 4 -mode natural -scheme cli
//	rdsim -kernel copy -n 4096 -mode smc -policy bankaware -placement aligned
//	rdsim -kernel copy -n 64 -mode smc -scheme pi -fifo 16 -timeline 4
//	rdsim -trace-gen hot-row:n=256 -mode smc -scheme pi -timeline 2
//	rdsim -kernel daxpy -mode smc -scheme pi -fifo 128 -profile profile
//
// The exit status is 0 only when the run verified functionally and (with
// -check or -timeline) the recorded device trace passed the protocol
// oracle; it is 1 for bad flags or protocol violations and 2 when
// functional verification failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rdramstream"
	"rdramstream/internal/obs"
	"rdramstream/internal/sim"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/trace"
	"rdramstream/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, simulates the scenario they describe, and writes the
// requested views to stdout and diagnostics to stderr. It returns the
// process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "daxpy", "benchmark kernel: copy, daxpy, hydro, vaxpy")
	n := fs.Int("n", 1024, "stream length in 64-bit elements")
	stride := fs.Int64("stride", 1, "element stride in 64-bit words")
	scheme := fs.String("scheme", "cli", "memory organization: cli (closed page) or pi (open page)")
	mode := fs.String("mode", "smc", "controller: smc or natural")
	fifo := fs.Int("fifo", 32, "SMC FIFO depth in elements (the reorder window with -trace-gen)")
	policy := fs.String("policy", "roundrobin", "MSU policy: roundrobin, bankaware, or hitfirst")
	placement := fs.String("placement", "staggered", "vector placement: staggered or aligned")
	speculate := fs.Bool("speculate", false, "enable speculative page activation (SMC, PI)")
	writeAlloc := fs.Bool("writealloc", false, "natural-order: fetch store-missed lines and write back on eviction")
	refresh := fs.Int64("refresh", 0, "inject a refresh every N cycles (0 = off, as the paper assumes)")
	faultSeverity := fs.Int("fault-severity", 0, "deterministic fault-injection severity (0 = off)")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector seed (with -fault-severity)")
	devices := fs.Int("devices", 1, "RDRAM chips on the channel (banks scale with it)")
	cacheWords := fs.Int("cache", 0, "natural-order: put a real cache of this many 64-bit words in front (0 = paper's ideal line buffers)")
	cacheWays := fs.Int("cacheways", 1, "associativity of the -cache model")
	seed := fs.Int64("seed", 1, "data pattern seed")
	traceGen := fs.String("trace-gen", "", "replay a generated trace instead of a kernel: a program spec (e.g. \"llm-kvcache:n=16384\") or @file for an NDJSON trace")
	traceSeed := fs.Int64("trace-seed", 1, "trace generator seed (with -trace-gen)")
	traceOut := fs.String("trace-out", "", "write the materialized trace as NDJSON to this file (with -trace-gen)")
	outstanding := fs.Int("outstanding", 0, "trace replay pipeline depth (with -trace-gen; 0 = device limit of 4)")
	jsonOut := fs.Bool("json", false, "emit the outcome as JSON (for scripting)")
	check := fs.Bool("check", false, "validate the recorded device trace against the Direct RDRAM protocol oracle; exit non-zero on violations")
	timeline := fs.Int("timeline", 0, "draw the ROW/COL/DATA bus timeline at this many cycles per character, with bus statistics; implies -check (0 = off)")
	profileDir := fs.String("profile", "", "write the telemetry bundle (metrics.json, timeseries.csv, events.jsonl, trace.json) into this directory and print the stall attribution")
	window := fs.Int64("window", 256, "telemetry time-series window in cycles (with -profile)")
	showVersion := fs.Bool("version", false, "print the version stamp and exit")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *showVersion {
		fmt.Fprintln(stdout, version.Stamp())
		return 0
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rdsim: "+format+"\n", args...)
		return 1
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail("%v", err)
	}
	defer stopProfiles()

	switch {
	case *devices < 1:
		return fail("-devices %d: want at least 1", *devices)
	case *traceGen == "" && *traceOut != "":
		return fail("-trace-out needs -trace-gen")
	case *traceGen == "" && *outstanding != 0:
		return fail("-outstanding needs -trace-gen")
	case *timeline > 0 && *jsonOut:
		return fail("-timeline draws text and cannot be combined with -json")
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
	if sc.Scheme, err = rdramstream.ParseInterleave(*scheme); err != nil {
		return fail("%v", err)
	}
	if sc.Mode, err = sim.ParseMode(*mode); err != nil {
		return fail("%v", err)
	}
	if sc.Policy, err = smc.ParsePolicy(*policy); err != nil {
		return fail("%v", err)
	}
	if sc.Placement, err = stream.ParsePlacement(*placement); err != nil {
		return fail("%v", err)
	}
	sc.Device.RefreshInterval = *refresh
	if *devices > 1 {
		sc.Device.Geometry.Banks *= *devices
		sc.Device.Geometry.DevicesOnChannel = *devices
	}
	if *cacheWords > 0 {
		sc.Cache = &rdramstream.CacheConfig{SizeWords: *cacheWords, LineWords: 4, Ways: *cacheWays}
	}
	if *faultSeverity > 0 {
		fc := rdramstream.ScaledFaults(*faultSeed, *faultSeverity)
		sc.Fault = &fc
	}

	traceName := ""
	if *traceGen != "" {
		spec, name, err := rdramstream.TraceSpecFromArg(*traceGen, *traceSeed)
		if err != nil {
			return fail("%v", err)
		}
		spec.Outstanding = *outstanding
		// Trace replay supersedes the kernel fields entirely.
		sc.KernelName, sc.N, sc.Stride = "", 0, 0
		sc.Workload = spec
		traceName = name
		if *traceOut != "" {
			accs, err := spec.Materialize()
			if err != nil {
				return fail("%v", err)
			}
			if err := writeFile(*traceOut, func(w io.Writer) error {
				return rdramstream.EncodeTrace(w, name, accs)
			}); err != nil {
				return fail("trace out: %v", err)
			}
		}
	}

	var col *rdramstream.Telemetry
	if *profileDir != "" {
		col = rdramstream.NewTelemetry(rdramstream.TelemetryOptions{Window: *window, CaptureEvents: true})
		sc.Telemetry = col
	}
	var rec rdramstream.TraceRecorder
	checked := *check || *timeline > 0
	if checked {
		sc.Trace = rec.Hook()
	}

	out, err := rdramstream.Simulate(sc)
	if err != nil {
		return fail("%v", err)
	}

	if col != nil {
		if err := writeBundle(*profileDir, col); err != nil {
			return fail("profile: %v", err)
		}
	}

	if *jsonOut {
		label := sc.KernelName
		if sc.Workload != nil {
			label = "trace:" + traceName
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Kernel    string
			N         int
			Stride    int64
			Scheme    string
			Mode      string
			FIFODepth int `json:",omitempty"`
			rdramstream.Outcome
		}{label, sc.N, sc.Stride, sc.Scheme.String(), sc.Mode.String(), *fifo, out}); err != nil {
			return fail("%v", err)
		}
	} else {
		if sc.Workload != nil {
			fmt.Fprintf(stdout, "trace       %s (%d useful words)\n", traceName, out.UsefulWords)
		} else {
			fmt.Fprintf(stdout, "kernel      %s (n=%d stride=%d)\n", sc.KernelName, sc.N, sc.Stride)
		}
		fmt.Fprintf(stdout, "system      %v / %v", sc.Scheme, sc.Mode)
		if sc.Mode == rdramstream.SMC {
			fmt.Fprintf(stdout, " (fifo=%d policy=%v speculate=%v)", sc.FIFODepth, sc.Policy, sc.SpeculateActivate)
		}
		fmt.Fprintf(stdout, " placement=%v\n", sc.Placement)
		fmt.Fprintf(stdout, "cycles      %d (%.2f us at 400 MHz)\n", out.Cycles, float64(out.Cycles)*2.5/1000)
		fmt.Fprintf(stdout, "bandwidth   %.2f%% of peak (%.0f MB/s of 1600)\n", out.PercentPeak, out.EffectiveMBps)
		if out.PercentAttainable != out.PercentPeak {
			fmt.Fprintf(stdout, "attainable  %.2f%% of the stride's attainable bandwidth\n", out.PercentAttainable)
		}
		fmt.Fprintf(stdout, "traffic     %d useful words, %d transferred\n", out.UsefulWords, out.TransferredWords)
		fmt.Fprintf(stdout, "device      %v\n", out.Device)
		fmt.Fprintf(stdout, "verified    %v\n", out.Verified)
	}

	exit := 0
	if checked {
		viols := rdramstream.CheckTrace(sc.Device, rec.Events)
		for _, v := range viols {
			fmt.Fprintf(stderr, "rdsim: protocol violation: %v\n", v)
		}
		if len(viols) > 0 {
			exit = 1
		} else if !*jsonOut {
			fmt.Fprintf(stdout, "protocol    clean (%d trace events checked)\n", len(rec.Events))
		}
	}
	if *timeline > 0 {
		fmt.Fprintf(stdout, "\n%s\n", rec.Timeline(*timeline))
		s := trace.Summarize(rec.Events)
		fmt.Fprintf(stdout, "cycles=%d dataBusUtil=%.1f%% reads=%d writes=%d activates=%d precharges=%d\n",
			s.Cycles, 100*s.DataBusUtil, s.ReadPackets, s.WritePackets, s.Activates, s.Precharges)
		fmt.Fprintf(stdout, "turnarounds=%d meanBurst=%.1f packets largestDataGap=%d cycles\n",
			s.Turnarounds, s.MeanBurstLen, s.LargestGap)
	}
	if col != nil && !*jsonOut {
		printProfile(stdout, out, col.Report())
		fmt.Fprintf(stdout, "\nbundle written to %s/ (metrics.json, timeseries.csv, events.jsonl, trace.json)\n", *profileDir)
		fmt.Fprintln(stdout, "open trace.json at https://ui.perfetto.dev or chrome://tracing (1 trace µs = 1 cycle)")
	}
	// Scripted sweeps must not silently pass on a corrupted memory image.
	if !out.Verified {
		fmt.Fprintln(stderr, "rdsim: functional verification did not pass")
		if exit == 0 {
			exit = 2
		}
	}
	return exit
}

// writeBundle writes the telemetry bundle's four files into dir.
func writeBundle(dir string, col *rdramstream.Telemetry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
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
		if err := writeFile(filepath.Join(dir, f.name), f.fn); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return nil
}

// printProfile renders the DATA-bus occupancy and the stall-attribution
// table — every idle DATA-bus cycle charged to one cause, in the
// taxonomy of docs/OBSERVABILITY.md — then the FIFO and miss-latency
// counters.
func printProfile(w io.Writer, out rdramstream.Outcome, rep *rdramstream.TelemetryReport) {
	fmt.Fprintf(w, "\ndata bus    busy %d cycles, idle %d cycles (%.1f%% utilization)\n",
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
	fmt.Fprintln(w, "\nidle DATA-bus cycles by cause:")
	for _, s := range stalls {
		fmt.Fprintf(w, "  %-12s %8d  (%5.1f%% of idle)\n", s.name, s.v, 100*float64(s.v)/float64(max(rep.IdleCycles, 1)))
	}

	if len(rep.FIFOs) > 0 {
		fmt.Fprintln(w, "\nFIFOs:")
		for _, f := range rep.FIFOs {
			fmt.Fprintf(w, "  %-16s %5d packets, full-stalls %d (%d cyc), empty-stalls %d (%d cyc)\n",
				f.Name, f.Serviced, f.FullStalls, f.FullStallCycles, f.EmptyStalls, f.EmptyStallCycles)
		}
	}
	if rep.MissLatencyAvg > 0 {
		var fetches int64
		for _, b := range rep.MissLatency {
			fetches += b.Count
		}
		fmt.Fprintf(w, "\nmiss latency: mean %.1f cycles over %d fetches\n", rep.MissLatencyAvg, fetches)
	}
	if rep.CPUStallCycles > 0 {
		fmt.Fprintf(w, "cpu stalls  %d cycles blocked on FIFO heads\n", rep.CPUStallCycles)
	}
	if rep.EventsTruncated {
		fmt.Fprintln(w, "note: event capture hit its buffer limit; trace.json/events.jsonl are truncated")
	}
}

// writeFile creates path and streams fn's output into it.
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
