// Package sim is the one-stop harness the experiments, examples, and
// public API use: it lays a kernel's vectors out in memory, seeds the
// device with a deterministic data pattern, dispatches to a controller
// from the engine registry, and verifies the device's final memory image
// against the kernel's golden semantics.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/engine"
	"rdramstream/internal/fault"
	"rdramstream/internal/rdram"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"

	// Imported for its engine.Register call: every controller the
	// Scenario API can name must be linked in. The workload package
	// (controller "conventional" plus the trace replay path) is imported
	// non-blank by trace.go.
	_ "rdramstream/internal/natorder"
)

// Mode selects the memory controller under test.
type Mode int

const (
	// NaturalOrder services cacheline accesses in program order — the
	// paper's baseline.
	NaturalOrder Mode = iota
	// SMC routes streams through the Stream Memory Controller.
	SMC
)

func (m Mode) String() string {
	if m == NaturalOrder {
		return "natural-order"
	}
	return "smc"
}

// ParseMode resolves a controller name, case-insensitively: "smc", or
// "natural", "natural-order" or "cache" for the natural-order baseline.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "smc":
		return SMC, nil
	case "natural", "natural-order", "cache":
		return NaturalOrder, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want smc or natural)", s)
}

// Scenario describes one simulation.
//
// rdlint:canonroot — this struct is the result cache's key domain.
// canoncheck requires every exported field (and every exported field of
// structs reachable from here) to influence Canonical()/resultcache.Key
// or carry an explicit rdlint:nocanon opt-out.
type Scenario struct {
	// KernelName selects a benchmark from stream.Benchmarks.
	KernelName string `json:"KernelName"`
	// N is the stream length in elements; Stride the element stride in
	// 64-bit words.
	N      int   `json:"N"`
	Stride int64 `json:"Stride"`

	Scheme    addrmap.Scheme   `json:"Scheme"`
	Placement stream.Placement `json:"Placement"`
	Mode      Mode             `json:"Mode"`
	// Controller, when non-empty, selects a controller from the engine
	// registry by name (see Controllers) and overrides Mode. Mode remains
	// the stable API for the paper's two systems; named dispatch is the
	// extension point for registered policies like "conventional".
	Controller string `json:"Controller"`

	// LineWords is the cacheline size (defaults to 4 = 32 bytes).
	LineWords int `json:"LineWords"`
	// FIFODepth is the SBU depth for SMC mode (defaults to 32).
	FIFODepth int `json:"FIFODepth"`
	// Policy is the MSU scheduling policy for SMC mode.
	Policy smc.Policy `json:"Policy"`
	// SpeculateActivate enables the SMC's page-crossing extension.
	SpeculateActivate bool `json:"SpeculateActivate"`
	// WriteAllocate enables the natural-order controller's
	// fetch-on-store-miss ablation.
	WriteAllocate bool `json:"WriteAllocate"`
	// Cache, when non-nil, puts a real set-associative write-back cache in
	// front of the natural-order controller (conflict misses and dirty
	// writebacks modeled). Ignored in SMC mode, which bypasses the cache
	// by design.
	Cache *cache.Config `json:"Cache"`

	// Device overrides the device configuration (zero value = paper's
	// default part). An override spells out both Timing and Geometry:
	// one that leaves either zero is an ErrPartialDevice, not the
	// default part.
	Device rdram.Config `json:"Device"`
	// Fault, when non-nil and active, attaches a deterministic fault
	// injector to the device (see internal/fault): refresh storms, per-bank
	// latency jitter, and transient rejections. A nil or inactive config
	// (fault.Scaled(seed, 0)) is bit-identical to a fault-free run.
	Fault *fault.Config `json:"Fault"`
	// WatchdogLimit bounds controller forward progress in cycles (0 =
	// engine.DefaultWatchdogLimit): a run that retires no useful word for
	// this long aborts with a *engine.WatchdogError instead of hanging.
	WatchdogLimit int64 `json:"WatchdogLimit"`
	// Seed drives the data pattern used to initialize the vectors.
	Seed int64 `json:"Seed"`
	// SkipVerify disables the post-run functional check (for benchmarks).
	SkipVerify bool `json:"SkipVerify"`

	// Workload, when non-nil, replaces the benchmark kernel with an
	// externally described access trace (see internal/tracegen): either
	// a deterministic generator program or an explicit access list. The
	// kernel fields (KernelName, N, Stride, Placement) do not apply —
	// KernelName must be empty — and the controller must be
	// "natural-order" (trace-order replay) or "smc" (row-hit-first
	// reordering over a FIFODepth-deep window). Trace runs are
	// timing-only: there is no golden image, so Verified reports that
	// the replay completed. Canonical reduces the spec to the trace's
	// content digest, which is what makes identical traces — however
	// they were spelled — one result-cache entry and one fabric shard.
	Workload *tracegen.Spec `json:"Workload,omitempty"`

	// Telemetry, when non-nil, instruments the run: per-window bus
	// occupancy and bandwidth, event capture, FIFO depth/starvation
	// (SMC), and the miss-latency histogram (natural order). The device
	// counters and the stall-cause attribution of every idle DATA-bus
	// cycle need no collector: every Outcome carries them in Device. The
	// caller keeps the collector and reads it back after the run;
	// Finalize is called with the run's total cycles, its CPU stall
	// cycles and the device's per-bank and per-window counters.
	// Telemetry is an observer: it
	// never changes the simulated outcome, so it is excluded from JSON
	// encoding (the service wire format) and from result-cache keys.
	Telemetry *telemetry.Collector `json:"-"`
	// Trace, when non-nil, receives every packet the device schedules —
	// the hook behind trace recording, protocol checking (rdsim -check),
	// and the Figure 5/6 timelines. Like Telemetry, it is a pure observer
	// and excluded from JSON encoding.
	Trace func(rdram.TraceEvent) `json:"-"`
}

// withDefaults fills zero fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.LineWords == 0 {
		sc.LineWords = 4
	}
	if sc.FIFODepth == 0 {
		sc.FIFODepth = 32
	}
	if sc.Stride == 0 {
		sc.Stride = 1
	}
	if sc.Device == (rdram.Config{}) {
		sc.Device = rdram.DefaultConfig()
	}
	return sc
}

// Typed scenario-validation errors, matchable with errors.Is. Every
// malformed scenario surfaces as one of these at the Run/RunAll boundary
// instead of panicking inside the device or mapper.
var (
	ErrUnknownKernel     = errors.New("sim: unknown kernel")
	ErrBadLength         = errors.New("sim: N must be positive")
	ErrBadStride         = errors.New("sim: stride must be positive")
	ErrUnknownMode       = errors.New("sim: unknown mode")
	ErrUnknownController = errors.New("sim: unknown controller")
	ErrBadLineWords      = errors.New("sim: bad LineWords")
	ErrBadFIFODepth      = errors.New("sim: bad FIFODepth")
	ErrBadWatchdog       = errors.New("sim: WatchdogLimit must be non-negative")
	ErrTraceScenario     = errors.New("sim: invalid trace scenario")
	ErrTraceController   = errors.New("sim: unsupported trace controller")
	ErrPartialDevice     = errors.New("sim: partial Device")
)

// Validate checks the scenario (after default filling) and returns a typed
// error for the first problem found. Run, RunKernel, and BuildKernel all
// validate, so out-of-range inputs fail at the API boundary.
func (sc Scenario) Validate() error {
	sc = sc.withDefaults()
	if sc.Workload != nil {
		if sc.KernelName != "" {
			return fmt.Errorf("%w: KernelName %q and Workload are mutually exclusive", ErrTraceScenario, sc.KernelName)
		}
		if err := sc.Workload.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrTraceScenario, err)
		}
		name, err := sc.controllerName()
		if err != nil {
			return err
		}
		if name != "natural-order" && name != "smc" {
			return fmt.Errorf("%w %q (trace replay supports natural-order and smc)", ErrTraceController, name)
		}
	} else {
		if _, ok := stream.FactoryByName(sc.KernelName); !ok {
			return fmt.Errorf("%w %q (have copy, daxpy, hydro, vaxpy)", ErrUnknownKernel, sc.KernelName)
		}
		if sc.N <= 0 {
			return fmt.Errorf("%w, got %d", ErrBadLength, sc.N)
		}
		if sc.Stride <= 0 {
			return fmt.Errorf("%w, got %d", ErrBadStride, sc.Stride)
		}
	}
	if err := sc.Scheme.Validate(); err != nil {
		return err
	}
	if sc.LineWords <= 0 || sc.LineWords%rdram.WordsPerPacket != 0 {
		return fmt.Errorf("%w: must be a positive multiple of %d, got %d", ErrBadLineWords, rdram.WordsPerPacket, sc.LineWords)
	}
	if sc.FIFODepth < rdram.WordsPerPacket {
		return fmt.Errorf("%w: must be at least %d, got %d", ErrBadFIFODepth, rdram.WordsPerPacket, sc.FIFODepth)
	}
	if sc.WatchdogLimit < 0 {
		return fmt.Errorf("%w, got %d", ErrBadWatchdog, sc.WatchdogLimit)
	}
	if _, err := sc.controllerName(); err != nil {
		return err
	}
	if sc.Controller != "" {
		if _, ok := engine.Lookup(sc.Controller); !ok {
			return fmt.Errorf("%w %q (have %v)", ErrUnknownController, sc.Controller, engine.Names())
		}
	}
	if err := validateDevice(sc.Device); err != nil {
		return err
	}
	if sc.Fault != nil {
		if err := sc.Fault.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateDevice checks a scenario's device after default filling: only
// the zero Device stands for the default part, so a Device that sets
// some fields but leaves Timing or Geometry zero is an ErrPartialDevice
// rather than a part nobody asked for.
func validateDevice(c rdram.Config) error {
	if c.Timing == (rdram.Timing{}) || c.Geometry == (rdram.Geometry{}) {
		return fmt.Errorf("%w: set both Timing and Geometry, or neither for the default part", ErrPartialDevice)
	}
	return c.Validate()
}

// DeviceConfig returns the device sc runs on: the paper's default part
// when sc.Device is the zero Config, else sc.Device itself, checked as
// Validate checks it (a partial Device is an ErrPartialDevice).
func DeviceConfig(sc Scenario) (rdram.Config, error) {
	c := sc.withDefaults().Device
	return c, validateDevice(c)
}

// Canonical returns the scenario in normal form: defaults filled
// (LineWords, FIFODepth, Stride, Device) and the controller resolved to
// its registry name, with Mode cleared. Two scenarios that simulate
// identically — one spelling the controller through Mode, the other
// through Controller, one relying on defaults, the other spelling them
// out — canonicalize to equal values, which is what makes result-cache
// keys order- and spelling-independent. Observer fields (Telemetry,
// Trace) are dropped: they never affect the outcome.
func (sc Scenario) Canonical() (Scenario, error) {
	sc = sc.withDefaults()
	name, err := sc.controllerName()
	if err != nil {
		return Scenario{}, err
	}
	sc.Controller = name
	sc.Mode = NaturalOrder // subsumed by Controller; zero the redundant field
	if sc.Fault != nil {
		if !sc.Fault.Active() {
			// An inactive config is bit-identical to no faults.
			sc.Fault = nil
		} else {
			f := *sc.Fault // don't alias the caller's pointer
			sc.Fault = &f
		}
	}
	if sc.Cache != nil {
		c := *sc.Cache
		sc.Cache = &c
	}
	if sc.Workload != nil {
		// A trace scenario's outcome is a function of the materialized
		// trace, not of how it was described: reduce the spec to its
		// content digest and zero every kernel-only field the replay
		// ignores, so a generator program, the trace it expands to, and a
		// wire-posted copy all share one key.
		w, err := sc.Workload.Canonical()
		if err != nil {
			return Scenario{}, err
		}
		sc.Workload = &w
		sc.KernelName, sc.N, sc.Stride = "", 0, 0
		sc.Placement = 0
		sc.Policy = 0
		sc.SpeculateActivate, sc.WriteAllocate = false, false
		sc.Cache = nil
		sc.SkipVerify = false
		sc.WatchdogLimit = 0
		sc.Seed = 0
	}
	sc.Telemetry = nil
	sc.Trace = nil
	return sc, nil
}

// Label is the human-readable scenario identifier used in sweep errors and
// fault-sweep rows: kernel/scheme/controller.
func (sc Scenario) Label() string {
	name, err := sc.controllerName()
	if err != nil {
		name = "?"
	}
	kernel := sc.KernelName
	if sc.Workload != nil {
		kernel = "trace"
		if p := sc.Workload.Program; p != nil && p.Name != "" {
			kernel = "trace:" + p.Name
		}
	}
	return kernel + "/" + sc.Scheme.String() + "/" + name
}

// Outcome reports a simulation's results: the controller's common outcome
// (cycles, traffic, and bandwidth figures — see engine.Result) plus the
// harness's functional check.
type Outcome struct {
	engine.Result
	// Verified is true when the final memory image matched the kernel's
	// golden execution.
	Verified bool `json:"Verified"`
}

// Controllers lists the names accepted by Scenario.Controller, sorted.
func Controllers() []string { return engine.Names() }

// controllerName resolves the scenario's registry name: the explicit
// Controller override, else the Mode.
func (sc Scenario) controllerName() (string, error) {
	if sc.Controller != "" {
		return sc.Controller, nil
	}
	switch sc.Mode {
	case NaturalOrder:
		return "natural-order", nil
	case SMC:
		return "smc", nil
	default:
		return "", fmt.Errorf("%w %d", ErrUnknownMode, int(sc.Mode))
	}
}

// BuildKernel lays out and constructs a benchmark kernel for a scenario.
func BuildKernel(sc Scenario) (*stream.Kernel, error) {
	sc = sc.withDefaults()
	if sc.Workload != nil {
		return nil, fmt.Errorf("%w: trace scenarios have no benchmark kernel", ErrTraceScenario)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	f, _ := stream.FactoryByName(sc.KernelName)
	bases, err := stream.Layout(sc.Scheme, sc.Device.Geometry, sc.LineWords, f.Footprints(sc.N, sc.Stride), sc.Placement)
	if err != nil {
		return nil, err
	}
	return f.Make(bases, sc.N, sc.Stride), nil
}

// Run executes the scenario: a benchmark kernel, or — when Workload is
// set — a trace replay (see runTrace).
func Run(sc Scenario) (Outcome, error) {
	sc = sc.withDefaults()
	if sc.Workload != nil {
		return runTrace(sc)
	}
	k, err := BuildKernel(sc)
	if err != nil {
		return Outcome{}, err
	}
	return RunKernel(k, sc)
}

// RunKernel executes the scenario with a caller-built kernel; the
// scenario's KernelName, N, and Stride fields are ignored. The kernel's
// vectors must fit the device geometry under the scenario's interleaving
// scheme (use stream.Layout to place them).
func RunKernel(k *stream.Kernel, sc Scenario) (Outcome, error) {
	sc = sc.withDefaults()
	dev, scr, err := newDevice(sc)
	if err != nil {
		return Outcome{}, err
	}
	defer scr.release(dev)
	mapper, err := addrmap.New(sc.Scheme, sc.Device.Geometry, sc.LineWords)
	if err != nil {
		return Outcome{}, err
	}
	// Caller-built kernels can address anything; reject streams that fall
	// outside the device before the mapper panics five frames deep.
	capacity := mapper.CapacityWords()
	for _, st := range k.Streams {
		if st.Length <= 0 {
			continue
		}
		if first, last := st.Addr(0), st.Addr(st.Length-1); first < 0 || last < 0 || first >= capacity || last >= capacity {
			return Outcome{}, fmt.Errorf("sim: stream %q spans addresses [%d, %d] outside device capacity %d words", st.Name, first, last, capacity)
		}
	}
	// Seeding exists for the functional check: data values never influence
	// the timing model (scheduling is purely address-driven, and the seed
	// rng is private to seed), so a SkipVerify run skips the seed pass too
	// and is still cycle-identical to a verified run.
	if sc.SkipVerify {
		dev.SetTimingOnly(true)
	} else {
		seed(dev, &mapper, k, sc.Seed, scr.rng(), &scr.image)
	}

	res, err := runController(dev, k, sc)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Result: res}
	finalize(sc.Telemetry, dev, out)

	if !sc.SkipVerify {
		if err := verify(dev, &mapper, k, &scr.image); err != nil {
			return out, err
		}
		out.Verified = true
	}
	return out, nil
}

// runController drives kernel k over dev through the scenario's
// registered controller.
func runController(dev *rdram.Device, k *stream.Kernel, sc Scenario) (engine.Result, error) {
	name, err := sc.controllerName()
	if err != nil {
		return engine.Result{}, err
	}
	ctl, ok := engine.Lookup(name)
	if !ok {
		return engine.Result{}, fmt.Errorf("%w %q (have %v)", ErrUnknownController, name, engine.Names())
	}
	return ctl.Run(dev, k, engine.Options{
		Scheme: sc.Scheme, LineWords: sc.LineWords, FIFODepth: sc.FIFODepth,
		Policy: int(sc.Policy), SpeculateActivate: sc.SpeculateActivate,
		WriteAllocate: sc.WriteAllocate, Cache: sc.Cache,
		Telemetry:     sc.Telemetry,
		WatchdogLimit: sc.WatchdogLimit,
	})
}

// RunAll executes scenarios on a bounded worker pool (workers <= 0 uses
// GOMAXPROCS) and returns the outcomes in scenario order. Each scenario
// builds its own device (and its own fault injector), so runs are
// independent and the results are identical to running serially. A
// panicking scenario fails only its own row: the pool converts the panic
// into an error, and the returned error names the scenario.
func RunAll(scs []Scenario, workers int) ([]Outcome, error) {
	return RunAllCtx(context.Background(), scs, workers)
}

// RunAllCtx is RunAll with cancellation: once ctx is done no further
// scenario starts, and the sweep returns the context's error. Scenarios
// already in flight complete first (the cancellation boundary is the
// scenario), so a server-side timeout or client disconnect reclaims the
// pool instead of abandoning goroutines mid-simulation.
func RunAllCtx(ctx context.Context, scs []Scenario, workers int) ([]Outcome, error) {
	outs, err := engine.MapCtx(ctx, workers, len(scs), func(i int) (Outcome, error) { return Run(scs[i]) })
	if err != nil {
		var pe *engine.PanicError
		if errors.As(err, &pe) && pe.Index >= 0 && pe.Index < len(scs) {
			return nil, fmt.Errorf("sim: scenario %d (%s): %w", pe.Index, scs[pe.Index].Label(), err)
		}
		return nil, err
	}
	return outs, nil
}

// newDevice builds the scenario's device and checks out the run's
// scratch; the caller returns it with scr.release(dev) when the run
// (including verification) is done. Kernel and trace runs share this
// one setup: fault wiring, device validation and construction, page
// pooling, the fault injector and the trace hook.
func newDevice(sc Scenario) (*rdram.Device, *scratch, error) {
	// Fault wiring happens before the device is built: storms need refresh
	// armed (the constructor only schedules refresh when the interval is
	// positive), and an inactive config attaches nothing at all, so
	// severity 0 is bit-identical to a fault-free run.
	var inj *fault.Injector
	if f := sc.Fault; f != nil && f.Active() {
		if err := f.Validate(); err != nil {
			return nil, nil, err
		}
		if f.RefreshBase > 0 && sc.Device.RefreshInterval == 0 {
			sc.Device.RefreshInterval = f.RefreshBase
		}
		var err error
		if inj, err = fault.New(*f, sc.Device.Geometry.Banks); err != nil {
			return nil, nil, err
		}
	}
	if err := validateDevice(sc.Device); err != nil {
		return nil, nil, err
	}
	dev := rdram.NewDevice(sc.Device)
	scr := scratchPool.Get().(*scratch)
	dev.UsePagePool(&scr.pages)
	if inj != nil {
		dev.Faults = inj
	}
	dev.Trace = sc.Trace
	return dev, scr, nil
}

// finalize hands the run's length and processor stall time and the
// device's per-bank and per-window counters to the scenario's collector,
// if any, for its report.
func finalize(col *telemetry.Collector, dev *rdram.Device, out Outcome) {
	if col != nil {
		col.Finalize(out.Cycles, out.CPUStallCycles, dev.PerBank(), dev.Windows.Counts)
	}
}

// scratch is the per-run allocation set a sweep recycles: the device's
// page table and page slots, the seed generator, the seed/verify golden
// image, and a trace run's expanded program (see materialize). newDevice
// checks one out per run and release returns it; sync.Pool keeps reuse
// per-worker-safe at any sweep width.
type scratch struct {
	pages rdram.PagePool
	image engine.Image
	gen   *rand.Rand
	trace []workload.TraceAccess
}

// rng returns the scratch's seed generator; seed reseeds it every run.
func (scr *scratch) rng() *rand.Rand {
	if scr.gen == nil {
		scr.gen = rand.New(rand.NewSource(0))
	}
	return scr.gen
}

// release returns dev's pages and the scratch itself to their pools.
func (scr *scratch) release(dev *rdram.Device) {
	dev.ReleasePages()
	scratchPool.Put(scr)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}
