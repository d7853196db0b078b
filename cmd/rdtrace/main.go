// Command rdtrace records the packet-level bus activity of one simulation,
// renders the ROW/COL/DATA timeline (the Figure 5/6 view for arbitrary
// scenarios), validates the schedule against the protocol oracle, and
// prints bus-utilization statistics. Kernel and trace runs alike go
// through sim.Run, so kernel runs are also functionally verified.
//
// Examples:
//
//	rdtrace -kernel daxpy -n 32 -mode natural -scheme cli
//	rdtrace -kernel copy -n 64 -mode smc -scheme pi -fifo 16 -scale 4
//	rdtrace -trace-gen hot-row:n=256 -mode smc -scheme pi
//	rdtrace -trace-gen @trace.ndjson -mode natural -scheme pi
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
	"rdramstream/internal/trace"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rdtrace: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, simulates the scenario they describe, and writes the
// timeline, bus statistics and protocol verdict to w. Protocol
// violations are listed on w and reported as an error.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rdtrace", flag.ExitOnError)
	kernel := fs.String("kernel", "daxpy", "benchmark kernel: copy, daxpy, hydro, vaxpy")
	n := fs.Int("n", 32, "stream length (keep small; the timeline is one character per -scale cycles)")
	schemeF := fs.String("scheme", "cli", "cli or pi")
	mode := fs.String("mode", "natural", "smc or natural")
	fifo := fs.Int("fifo", 16, "SMC FIFO depth (the reorder window with -trace-gen)")
	scale := fs.Int("scale", 2, "cycles per timeline character")
	traceGen := fs.String("trace-gen", "", "replay a generated trace: a program spec (e.g. \"hot-row:n=256\") or @file for an NDJSON trace")
	traceSeed := fs.Int64("trace-seed", 1, "trace generator seed (with -trace-gen)")
	traceOut := fs.String("trace-out", "", "write the materialized trace as NDJSON to this file (with -trace-gen)")
	showVersion := fs.Bool("version", false, "print the version stamp and exit")
	fs.Parse(args)

	if *showVersion {
		fmt.Fprintln(w, version.Stamp())
		return nil
	}

	scheme, err := addrmap.ParseScheme(*schemeF)
	if err != nil {
		return err
	}
	cfg := rdram.DefaultConfig()
	var rec rdram.Recorder
	sc := sim.Scenario{Scheme: scheme, LineWords: 4, FIFODepth: *fifo, Device: cfg, Trace: rec.Hook()}

	var header string
	if *traceGen != "" {
		spec, name, err := tracegen.SpecFromArg(*traceGen, *traceSeed)
		if err != nil {
			return err
		}
		accs, err := spec.Materialize()
		if err != nil {
			return err
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := tracegen.Encode(f, name, accs); err != nil {
				f.Close()
				return fmt.Errorf("trace out: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("trace out: %w", err)
			}
		}
		sc.Workload = &tracegen.Spec{Accesses: accs}
		header = fmt.Sprintf("trace %s (%d accesses), %v, %s controller", name, len(accs), scheme, *mode)
	} else {
		if _, ok := stream.FactoryByName(*kernel); !ok {
			return fmt.Errorf("unknown kernel %q", *kernel)
		}
		sc.KernelName, sc.N, sc.Placement = *kernel, *n, stream.Staggered
		header = fmt.Sprintf("%s, %d elements, %v, %s controller", *kernel, *n, scheme, *mode)
	}
	switch strings.ToLower(*mode) {
	case "smc":
		sc.Mode = sim.SMC
	case "natural", "cache":
	default:
		if sc.Workload != nil {
			return fmt.Errorf("unknown mode %q for trace replay (want smc or natural)", *mode)
		}
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if _, err := sim.Run(sc); err != nil {
		return err
	}

	fmt.Fprintf(w, "%s\n\n", header)
	fmt.Fprintln(w, rec.Timeline(*scale))

	s := trace.Summarize(rec.Events)
	fmt.Fprintf(w, "cycles=%d dataBusUtil=%.1f%% reads=%d writes=%d activates=%d precharges=%d\n",
		s.Cycles, 100*s.DataBusUtil, s.ReadPackets, s.WritePackets, s.Activates, s.Precharges)
	fmt.Fprintf(w, "turnarounds=%d meanBurst=%.1f packets largestDataGap=%d cycles\n",
		s.Turnarounds, s.MeanBurstLen, s.LargestGap)

	if viols := trace.NewChecker(cfg).Check(rec.Events); len(viols) > 0 {
		fmt.Fprintf(w, "\nPROTOCOL VIOLATIONS (%d):\n", len(viols))
		for _, v := range viols {
			fmt.Fprintln(w, "  ", v)
		}
		return fmt.Errorf("%d protocol violations", len(viols))
	}
	fmt.Fprintln(w, "protocol check: clean (tRR/tRC/tRP/tRAS/tRCD/tRW and bus occupancy all respected)")
	return nil
}
