package sim

import (
	"errors"
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/fault"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
)

// typedErrors are the errors a scenario may fail with: every typed
// validation error of this package.
var typedErrors = []error{
	ErrUnknownKernel, ErrBadLength, ErrBadStride, ErrUnknownMode,
	ErrUnknownController, ErrBadLineWords, ErrBadFIFODepth, ErrBadWatchdog,
	ErrTraceScenario, ErrTraceController, ErrPartialDevice,
}

// Scenario kinds FuzzRun draws.
const (
	fuzzBenchmark = iota // a benchmark kernel through Run
	fuzzTrace            // a trace program through Run
	fuzzAliasing         // a caller-built aliasing kernel through RunKernel
	fuzzKinds
)

// fuzzScenario maps fuzz inputs onto a bounded scenario: a kernel (N at
// most 512, stride 1–16) under natural order, the SMC or the
// conventional controller, a small trace program (at most 512 accesses)
// under natural order or the SMC, or a caller-built aliasing kernel (see
// fuzzKernel) under any of the three; either scheme and placement, FIFO
// depth 2–128 and fault severity 0–3.
func fuzzScenario(kind, pick, scheme, ctl uint8, n uint16, stride, depth, severity uint8, seed int64) Scenario {
	sc := Scenario{
		Scheme:     addrmap.Scheme(scheme % 2),
		Placement:  stream.Placement(pick / 4 % 2),
		Controller: []string{"natural-order", "smc", "conventional"}[int(ctl)%3],
		FIFODepth:  2 + int(depth)%127,
		Seed:       seed,
	}
	if s := int(severity % 4); s > 0 {
		f := fault.Scaled(seed, s)
		sc.Fault = &f
	}
	switch kind % fuzzKinds {
	case fuzzBenchmark:
		sc.KernelName = []string{"copy", "daxpy", "hydro", "vaxpy"}[pick%4]
		sc.N, sc.Stride = 1+int(n)%512, 1+int64(stride%16)
	case fuzzTrace:
		sc.Controller = []string{"natural-order", "smc"}[int(ctl)%2]
		patterns := []string{tracegen.PatternStrided, tracegen.PatternChase, tracegen.PatternHotRow, tracegen.PatternLLMKV}
		sc.Workload = &tracegen.Spec{Program: &tracegen.Program{Seed: seed, Phases: []tracegen.Phase{
			{Pattern: patterns[pick%4], Accesses: 1 + int(n)%512, WriteFraction: float64(stride%5) / 4},
		}}}
	}
	return sc
}

// fuzzKernel draws a caller-built kernel for an aliasing scenario from
// seed: the first of randomAliasingKernel's shapes (at most 300 elements
// per stream on the default part) that sc's controller accepts —
// positive strides, and for the SMC no aliasing across elements
// (smcAccepts). A seed that draws none in 64 tries gets daxpy's
// read-modify-write shape.
func fuzzKernel(sc Scenario, seed int64) *stream.Kernel {
	r := rand.New(rand.NewSource(seed))
	for range 64 {
		k := randomAliasingKernel(r, rdram.DefaultGeometry())
		if k.Validate() == nil && (sc.Controller != "smc" || smcAccepts(k)) {
			return k
		}
	}
	return stream.Daxpy(3, 0, 4096, 100, 1)
}

// FuzzRun drives Run itself over bounded scenarios, and RunKernel over
// caller-built aliasing kernels: neither may panic, either may fail only
// with a typed error (a validation error of this package, or the
// engine's rejection or watchdog error under faults), and a run that
// succeeds is verified, with every idle DATA-bus cycle attributed to
// exactly one stall cause.
func FuzzRun(f *testing.F) {
	f.Add(uint8(fuzzBenchmark), uint8(1), uint8(1), uint8(1), uint16(255), uint8(0), uint8(126), uint8(0), int64(1))
	f.Add(uint8(fuzzBenchmark), uint8(2), uint8(0), uint8(0), uint16(511), uint8(3), uint8(30), uint8(2), int64(7))
	f.Add(uint8(fuzzBenchmark), uint8(7), uint8(1), uint8(2), uint16(100), uint8(15), uint8(0), uint8(3), int64(42))
	f.Add(uint8(fuzzTrace), uint8(3), uint8(1), uint8(1), uint16(300), uint8(2), uint8(62), uint8(0), int64(7))
	f.Add(uint8(fuzzTrace), uint8(1), uint8(0), uint8(0), uint16(64), uint8(4), uint8(14), uint8(3), int64(-3))
	f.Add(uint8(fuzzAliasing), uint8(0), uint8(0), uint8(0), uint16(0), uint8(0), uint8(14), uint8(0), int64(5))
	f.Add(uint8(fuzzAliasing), uint8(0), uint8(1), uint8(1), uint16(0), uint8(0), uint8(1), uint8(1), int64(9))
	f.Add(uint8(fuzzAliasing), uint8(0), uint8(1), uint8(2), uint16(0), uint8(0), uint8(30), uint8(3), int64(11))
	f.Fuzz(func(t *testing.T, kind, pick, scheme, ctl uint8, n uint16, stride, depth, severity uint8, seed int64) {
		sc := fuzzScenario(kind, pick, scheme, ctl, n, stride, depth, severity, seed)
		var out Outcome
		var err error
		if kind%fuzzKinds == fuzzAliasing {
			out, err = RunKernel(fuzzKernel(sc, seed), sc)
		} else {
			out, err = Run(sc)
		}
		if err != nil {
			var rej *engine.RejectError
			var wd *engine.WatchdogError
			if errors.As(err, &rej) || errors.As(err, &wd) {
				return
			}
			for _, typed := range typedErrors {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("%s: untyped error: %v", sc.Label(), err)
		}
		if !out.Verified {
			t.Fatalf("%s: run not verified", sc.Label())
		}
		if got, want := stallSum(out.Device), out.Cycles-out.Device.DataBusBusy; got != want {
			t.Fatalf("%s: Σ Stalls = %d, want Cycles−DataBusBusy = %d (stalls %v)", sc.Label(), got, want, out.Device.Stalls)
		}
	})
}
