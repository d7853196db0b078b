// Package rdramstream is a cycle-based study of access order and effective
// bandwidth for streaming computations on a Direct Rambus DRAM, reproducing
// Hong et al., "Access Order and Effective Bandwidth for Streams on a
// Direct Rambus Memory" (HPCA 1999).
//
// It bundles:
//
//   - a packet-level Direct RDRAM device timing model (banks, sense amps,
//     ROW/COL/DATA buses, open/closed page policies);
//   - two memory organizations: cacheline interleaving with a closed-page
//     policy (CLI) and page interleaving with an open-page policy (PI);
//   - a natural-order cacheline controller (the conventional baseline);
//   - a Stream Memory Controller (SMC): per-stream FIFOs plus a Memory
//     Scheduling Unit that dynamically reorders stream accesses;
//   - the paper's analytic performance bounds (§5); and
//   - the benchmark kernels (copy, daxpy, hydro, vaxpy) and experiment
//     harnesses that regenerate every figure and table.
//
// # Quickstart
//
//	out, err := rdramstream.Simulate(rdramstream.Scenario{
//	    KernelName: "daxpy",
//	    N:          1024,
//	    Scheme:     rdramstream.PI,
//	    Mode:       rdramstream.SMC,
//	    FIFODepth:  128,
//	    Placement:  rdramstream.Staggered,
//	})
//	// out.PercentPeak ≈ 95+: the SMC extracts nearly all of the device's
//	// 1.6 GB/s for long unit-stride streams.
//
// Custom workloads build a Kernel from Streams (see SimulateKernel and
// LayoutVectors), and the analytic bounds are available through Bounds.
package rdramstream

import (
	"context"
	"io"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/analytic"
	"rdramstream/internal/cache"
	"rdramstream/internal/compiler"
	"rdramstream/internal/fault"
	"rdramstream/internal/rdram"
	"rdramstream/internal/sim"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/trace"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/version"
	"rdramstream/internal/workload"
)

// Core workload types, re-exported from the implementation packages so
// there is a single source of truth.
type (
	// Kernel is an inner loop over a set of streams.
	Kernel = stream.Kernel
	// Stream describes one vector access pattern (base, stride, length,
	// direction).
	Stream = stream.Stream
	// Mode is a stream direction (Read or Write).
	Mode = stream.Mode
	// Scenario configures a simulation run.
	Scenario = sim.Scenario
	// Outcome reports bandwidth, traffic, and verification results.
	Outcome = sim.Outcome
	// Bounds evaluates the paper's §5 analytic models.
	Bounds = analytic.Params
	// DeviceConfig is the Direct RDRAM timing and geometry.
	DeviceConfig = rdram.Config
	// CacheConfig sizes the optional realistic processor cache in front of
	// the natural-order controller (Scenario.Cache).
	CacheConfig = cache.Config
	// DeviceTiming is the set of Figure 2 timing parameters.
	DeviceTiming = rdram.Timing
	// Interleave selects the memory organization.
	Interleave = addrmap.Scheme
	// Placement selects the vector-to-bank alignment.
	Placement = stream.Placement
	// Controller selects the memory controller under test.
	Controller = sim.Mode
	// Policy selects the MSU scheduling algorithm.
	Policy = smc.Policy
)

// Re-exported enum values.
const (
	// CLI is cacheline interleaving with a closed-page policy.
	CLI = addrmap.CLI
	// PI is page interleaving with an open-page policy.
	PI = addrmap.PI

	// Aligned places every vector base in the same bank (maximal
	// conflicts); Staggered spreads them across banks.
	Aligned   = stream.Aligned
	Staggered = stream.Staggered

	// NaturalOrder is the conventional cacheline controller; SMC the
	// Stream Memory Controller.
	NaturalOrder = sim.NaturalOrder
	SMC          = sim.SMC

	// RoundRobin is the paper's MSU policy; BankAware and HitFirst are the
	// §6 extension policies (conflict avoidance and row-latency hiding).
	RoundRobin = smc.RoundRobin
	BankAware  = smc.BankAware
	HitFirst   = smc.HitFirst

	// Read and Write are stream directions.
	Read  = stream.Read
	Write = stream.Write
)

// Simulate runs one of the built-in benchmark kernels (see Kernels) under
// the scenario and returns its outcome, functionally verified unless
// Scenario.SkipVerify is set.
func Simulate(sc Scenario) (Outcome, error) { return sim.Run(sc) }

// SimulateKernel runs a caller-built kernel. Place its vectors with
// LayoutVectors (or any non-overlapping page-aligned layout of your own).
func SimulateKernel(k *Kernel, sc Scenario) (Outcome, error) { return sim.RunKernel(k, sc) }

// SimulateAll runs the scenarios on a bounded worker pool (workers <= 0
// uses GOMAXPROCS) and returns the outcomes in scenario order. Results are
// identical to running each scenario serially — parallelism is purely a
// wall-clock optimization.
func SimulateAll(scs []Scenario, workers int) ([]Outcome, error) { return sim.RunAll(scs, workers) }

// SimulateAllCtx is SimulateAll with cancellation: once ctx is done no
// further scenario starts and the sweep returns the context's error, while
// scenarios already in flight complete. It is the entry point the serving
// layer (internal/service, cmd/rdserved) threads request timeouts through.
func SimulateAllCtx(ctx context.Context, scs []Scenario, workers int) ([]Outcome, error) {
	return sim.RunAllCtx(ctx, scs, workers)
}

// Version is the build's identity stamp — module version plus a
// fingerprint of the simulation model's fixed parameters. Every cmd
// prints it for -version, and the serving layer's result cache embeds it
// in cache keys so outcomes from a different model version never leak
// across an upgrade.
func Version() string { return version.Stamp() }

// Controllers lists the names accepted by Scenario.Controller: the
// registered access-ordering policies, including any added through the
// engine registry extension point.
func Controllers() []string { return sim.Controllers() }

// Kernels lists the built-in benchmark kernel names.
func Kernels() []string {
	names := make([]string, len(stream.Benchmarks))
	for i, f := range stream.Benchmarks {
		names[i] = f.Name
	}
	return names
}

// LayoutVectors assigns non-overlapping, bank-placed base addresses to
// vectors with the given footprints (in 64-bit words) for the default
// device geometry.
func LayoutVectors(scheme Interleave, placement Placement, footprints []int64) ([]int64, error) {
	return stream.Layout(scheme, rdram.DefaultGeometry(), 4, footprints, placement)
}

// DefaultBounds returns the paper's system parameters for the analytic
// models: -50/-800 part timing, 32-byte lines, 1 KB pages.
func DefaultBounds() Bounds { return analytic.DefaultParams() }

// Loop, Ref, and Binding form the compiler-side interface of §3: describe
// an affine inner loop, let Detect/Compile extract its stream descriptors.
type (
	Loop    = compiler.Loop
	Ref     = compiler.Ref
	Binding = compiler.Binding
)

// CompileLoop runs the §3 stream-detection pass over an affine inner loop
// and binds its arrays to addresses, yielding a simulatable Kernel. Use
// LoopFootprints + LayoutVectors to obtain non-overlapping bases first.
func CompileLoop(l Loop, bind Binding) (*Kernel, error) { return compiler.Compile(l, bind) }

// LoopFootprints reports the arrays a loop touches (in first-appearance
// order) and the words of memory each needs.
func LoopFootprints(l Loop) (names []string, words []int64, err error) {
	return compiler.Footprints(l)
}

// DepthResult is one point of a FIFO-depth search.
type DepthResult = smc.DepthResult

// TuneFIFODepth runs the scenario's kernel at each candidate FIFO depth
// and returns the smallest depth whose bandwidth lands within tolerance
// percentage points of the best, plus every measurement. The paper's §6:
// "the best FIFO depth must be chosen experimentally" — this is that
// experiment.
func TuneFIFODepth(sc Scenario, depths []int, tolerance float64) (int, []DepthResult, error) {
	if sc.Device.Timing.TPack == 0 {
		sc.Device = rdram.DefaultConfig()
	}
	if sc.LineWords == 0 {
		sc.LineWords = 4
	}
	k, err := sim.BuildKernel(sc)
	if err != nil {
		return 0, nil, err
	}
	cfg := smc.Config{
		Scheme: sc.Scheme, LineWords: sc.LineWords,
		Policy: sc.Policy, SpeculateActivate: sc.SpeculateActivate,
	}
	return smc.TuneDepth(sc.Device, k, cfg, depths, tolerance)
}

// DefaultDevice returns the paper's device configuration: eight banks,
// 1 KB pages, the Figure 2 timing, refresh disabled.
func DefaultDevice() DeviceConfig { return rdram.DefaultConfig() }

// Observability layer: cycle-level telemetry and trace validation.
type (
	// Telemetry collects cycle-level instrumentation for one run:
	// windowed bus occupancy and bandwidth, per-bank and per-FIFO events,
	// FIFO depth/starvation, and the miss-latency histogram; its report
	// adds the device's per-bank counters and stall-cause attribution,
	// which every Outcome carries anyway (Outcome.Device). Attach it via
	// Scenario.Telemetry and read it back (Report, WriteMetricsJSON,
	// WriteSeriesCSV, WriteChromeTrace, WriteEventsJSONL) after the run.
	Telemetry = telemetry.Collector
	// TelemetryOptions configures NewTelemetry (window width, event
	// capture).
	TelemetryOptions = telemetry.Options
	// TelemetryReport is the JSON-friendly snapshot of a Telemetry.
	TelemetryReport = telemetry.Report
	// StallCause classifies why a DATA-bus cycle went idle.
	StallCause = telemetry.StallCause
	// TraceEvent is one packet scheduled on a device bus.
	TraceEvent = rdram.TraceEvent
	// TraceRecorder collects TraceEvents (hand its Hook to
	// Scenario.Trace).
	TraceRecorder = rdram.Recorder
	// TraceViolation is one Direct RDRAM protocol rule broken by a trace.
	TraceViolation = trace.Violation
)

// NewTelemetry builds a telemetry collector; the zero Options give
// 256-cycle windows with event capture off.
func NewTelemetry(o TelemetryOptions) *Telemetry { return telemetry.New(o) }

// Trace-driven workloads (internal/tracegen): a deterministic,
// seed-driven generator DSL plus an NDJSON trace wire format. Attach a
// TraceSpec via Scenario.Workload to replay a trace instead of a
// benchmark kernel; see docs/WORKLOADS.md for the DSL grammar, the wire
// format, and the cache-key semantics.
type (
	// TraceProgram is a seeded sequence of generator phases.
	TraceProgram = tracegen.Program
	// TracePhase is one pattern instance of a TraceProgram.
	TracePhase = tracegen.Phase
	// TraceSpec names a trace workload: a generator program or an
	// explicit access list (Scenario.Workload).
	TraceSpec = tracegen.Spec
	// TraceAccess is one word-level request of an address trace.
	TraceAccess = workload.TraceAccess
)

// ParseTraceProgram parses the one-line trace-generator DSL
// ("pattern:key=val,...;pattern2:..." — see docs/WORKLOADS.md).
func ParseTraceProgram(spec string, seed int64) (*TraceProgram, error) {
	return tracegen.ParseProgram(spec, seed)
}

// TraceSpecFromArg resolves a CLI -trace-gen argument: "@path" loads an
// NDJSON trace file, anything else parses as the program DSL. The
// second return is the trace's display name.
func TraceSpecFromArg(arg string, seed int64) (*TraceSpec, string, error) {
	return tracegen.SpecFromArg(arg, seed)
}

// EncodeTrace writes a trace in the NDJSON wire format (header line +
// access lines); the encoding is byte-deterministic.
func EncodeTrace(w io.Writer, name string, accs []TraceAccess) error {
	return tracegen.Encode(w, name, accs)
}

// DecodeTrace reads a complete NDJSON trace, rejecting malformed lines
// (with line numbers), count mismatches, and trailing garbage.
func DecodeTrace(r io.Reader) (name string, accs []TraceAccess, err error) {
	h, accs, err := tracegen.Decode(r)
	return h.Name, accs, err
}

// FaultConfig configures the deterministic fault injector (refresh storms,
// per-bank latency jitter, transient access rejections). Attach one via
// Scenario.Fault; the same seed always produces the same fault sequence,
// and a zero-severity config is bit-identical to running with no faults.
// See docs/ROBUSTNESS.md for the fault model.
type FaultConfig = fault.Config

// ScaledFaults maps an integer severity (0 = off) onto the canonical fault
// configuration used by the -faults sweep: rejection probability, jitter
// amplitude, and refresh-storm shape all grow with severity.
func ScaledFaults(seed int64, severity int) FaultConfig { return fault.Scaled(seed, severity) }

// ParseInterleave resolves a memory-organization name (case-insensitive
// "CLI" or "PI") — the single flag-parsing path the CLIs share. Unknown
// names return an error wrapping addrmap.ErrUnknownScheme.
func ParseInterleave(name string) (Interleave, error) { return addrmap.ParseScheme(name) }

// CheckTrace validates a recorded device trace against the Direct RDRAM
// protocol rules of the paper's Figure 2 — an oracle independent of the
// device implementation. It returns every violation found (nil = clean).
func CheckTrace(cfg DeviceConfig, events []TraceEvent) []TraceViolation {
	return trace.NewChecker(cfg).Check(events)
}
