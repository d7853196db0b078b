// Command sweep runs free-form parameter sweeps over the simulator and
// emits CSV on stdout, for exploring the design space beyond the paper's
// figures (FIFO depth, stride, bank count, vector length).
//
// Examples:
//
//	sweep -var fifo -kernel vaxpy -n 1024          # FIFO depth sweep
//	sweep -var stride -kernel vaxpy -mode natural  # stride sweep
//	sweep -var banks -kernel daxpy -mode smc       # bank-count sweep
//	sweep -var length -kernel copy -mode smc       # vector-length sweep
//	sweep -faults 42,1,2,4,8 -kernel daxpy         # fault-degradation sweep
//	sweep -parallel 1                              # force a serial run
//	sweep -server http://localhost:8347            # offload to a running rdserved
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rdramstream"
	"rdramstream/internal/experiments"
	"rdramstream/internal/obs"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
	"rdramstream/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the sweep they describe, and writes its CSV to
// stdout and diagnostics to stderr. It returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variable := fs.String("var", "fifo", "sweep variable: fifo, stride, banks, length, or pagesize")
	kernel := fs.String("kernel", "vaxpy", "benchmark kernel")
	n := fs.Int("n", 1024, "stream length (fixed unless -var length)")
	mode := fs.String("mode", "smc", "controller: smc or natural")
	fifo := fs.Int("fifo", 32, "FIFO depth (fixed unless -var fifo)")
	parallel := fs.Int("parallel", 0, "worker count for the sweep (0 = GOMAXPROCS, 1 = serial)")
	faults := fs.String("faults", "", `fault-degradation sweep "seed,severity[,severity...]": every controller and scheme under deterministic fault injection (overrides -var)`)
	traceGen := fs.String("trace-gen", "", "sweep a generated trace instead of a kernel: a program spec (e.g. \"llm-kvcache:n=16384\") or @file for an NDJSON trace")
	traceSeed := fs.Int64("trace-seed", 1, "trace generator seed (with -trace-gen)")
	server := fs.String("server", "", "offload scenario execution to a running rdserved at this base URL (e.g. http://localhost:8347); repeated sweeps hit its result cache")
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
		fmt.Fprintf(stderr, "sweep: "+format+"\n", args...)
		return 1
	}

	ctrl, err := sim.ParseMode(*mode)
	if err != nil {
		return fail("%v", err)
	}
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fail("%v", err)
	}
	defer stopProfiles()

	if *faults != "" {
		if err := faultSweep(stdout, *faults, *kernel, *n, *parallel, *server); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	base := rdramstream.Scenario{
		KernelName: *kernel,
		Mode:       ctrl,
		N:          *n,
		FIFODepth:  *fifo,
		Placement:  rdramstream.Staggered,
		SkipVerify: true,
		Device:     rdramstream.DefaultDevice(),
	}
	if *traceGen != "" {
		switch strings.ToLower(*variable) {
		case "stride", "length":
			return fail("-var %s sweeps a kernel parameter; traces have no stride or length knob", *variable)
		}
		spec, _, err := rdramstream.TraceSpecFromArg(*traceGen, *traceSeed)
		if err != nil {
			return fail("%v", err)
		}
		// Trace replay supersedes the kernel fields entirely.
		base.KernelName, base.N = "", 0
		base.Workload = spec
	}

	// Build the scenario list up front (two schemes per sweep point, in
	// output order), then run it on the worker pool: the CSV is identical
	// for any worker count.
	var scs []rdramstream.Scenario
	var values []int
	add := func(sc rdramstream.Scenario, x int) {
		for _, scheme := range []rdramstream.Interleave{rdramstream.CLI, rdramstream.PI} {
			sc.Scheme = scheme
			scs = append(scs, sc)
			values = append(values, x)
		}
	}
	switch strings.ToLower(*variable) {
	case "fifo":
		for _, f := range []int{8, 16, 32, 64, 128, 256} {
			sc := base
			sc.FIFODepth = f
			add(sc, f)
		}
	case "stride":
		for _, s := range []int64{1, 2, 4, 8, 16, 32} {
			sc := base
			sc.Stride = s
			add(sc, int(s))
		}
	case "banks":
		for _, b := range []int{2, 4, 8, 16, 32} {
			sc := base
			sc.Device.Geometry.Banks = b
			add(sc, b)
		}
	case "length":
		for _, l := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
			sc := base
			sc.N = l
			add(sc, l)
		}
	case "pagesize":
		for _, pw := range []int{32, 64, 128, 256, 512} {
			sc := base
			sc.Device.Geometry.PageWords = pw
			add(sc, pw)
		}
	default:
		return fail("unknown variable %q", *variable)
	}

	outs, err := runner(*server)(scs, *parallel)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintln(stdout, "variable,value,scheme,percent_peak,mbps,cycles")
	for i, out := range outs {
		fmt.Fprintf(stdout, "%s,%d,%v,%.2f,%.2f,%d\n",
			*variable, values[i], scs[i].Scheme, out.PercentPeak, out.EffectiveMBps, out.Cycles)
	}
	return 0
}

// runner picks the execution strategy for a scenario list: in-process on
// the worker pool, or offloaded to a running rdserved (whose result cache
// makes repeated sweeps nearly free). The remote path ignores the local
// worker count — parallelism is the server's -workers setting.
func runner(server string) func(scs []rdramstream.Scenario, workers int) ([]rdramstream.Outcome, error) {
	if server == "" {
		return rdramstream.SimulateAll
	}
	cl := client.New(server)
	return func(scs []rdramstream.Scenario, _ int) ([]rdramstream.Outcome, error) {
		return cl.SweepOutcomes(context.Background(), scs)
	}
}

// faultSweep parses "seed,severity[,severity...]" and writes the fault
// degradation of every controller × scheme as CSV to w. The same seed
// always yields byte-identical output, at any worker count — CI diffs two
// runs to hold that guarantee. The "# seed=…" header makes every artifact
// self-describing: the table regenerates from the file alone.
func faultSweep(w io.Writer, spec, kernel string, n, workers int, server string) error {
	fields := strings.Split(spec, ",")
	if len(fields) < 2 {
		return fmt.Errorf("-faults wants \"seed,severity[,severity...]\", got %q", spec)
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return fmt.Errorf("-faults seed: %v", err)
	}
	var severities []int
	for _, f := range fields[1:] {
		sev, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || sev < 0 {
			return fmt.Errorf("-faults severity %q: want a non-negative integer", f)
		}
		severities = append(severities, sev)
	}
	run := runner(server)
	pts, err := experiments.FaultSweepPointsWith(kernel, n, seed, severities, func(scs []sim.Scenario) ([]sim.Outcome, error) {
		return run(scs, workers)
	})
	if err != nil {
		return err
	}
	sevStrs := make([]string, len(severities))
	for i, s := range severities {
		sevStrs[i] = strconv.Itoa(s)
	}
	fmt.Fprintf(w, "# seed=%d severities=%s kernel=%s n=%d\n", seed, strings.Join(sevStrs, ","), kernel, n)
	fmt.Fprintln(w, "severity,controller,scheme,percent_peak,percent_of_clean,cycles,rejections,jitter_cycles,refreshes,verified")
	for _, p := range pts {
		fmt.Fprintf(w, "%d,%s,%s,%.2f,%.2f,%d,%d,%d,%d,%v\n",
			p.Severity, p.Controller, p.SchemeName, p.PercentPeak, p.PercentOfClean,
			p.Cycles, p.Rejections, p.JitterCycles, p.Refreshes, p.Verified)
	}
	return nil
}
