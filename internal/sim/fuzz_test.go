package sim

import (
	"errors"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/fault"
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

// fuzzScenario maps fuzz inputs onto a bounded scenario: a kernel (N at
// most 512, stride 1–16) under natural order, the SMC or the
// conventional controller, or a small trace program (at most 512
// accesses) under natural order or the SMC; either scheme and placement,
// FIFO depth 2–128 and fault severity 0–3.
func fuzzScenario(isTrace bool, pick, scheme, ctl uint8, n uint16, stride, depth, severity uint8, seed int64) Scenario {
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
	if !isTrace {
		sc.KernelName = []string{"copy", "daxpy", "hydro", "vaxpy"}[pick%4]
		sc.N, sc.Stride = 1+int(n)%512, 1+int64(stride%16)
		return sc
	}
	sc.Controller = []string{"natural-order", "smc"}[int(ctl)%2]
	patterns := []string{tracegen.PatternStrided, tracegen.PatternChase, tracegen.PatternHotRow, tracegen.PatternLLMKV}
	sc.Workload = &tracegen.Spec{Program: &tracegen.Program{Seed: seed, Phases: []tracegen.Phase{
		{Pattern: patterns[pick%4], Accesses: 1 + int(n)%512, WriteFraction: float64(stride%5) / 4},
	}}}
	return sc
}

// FuzzRun drives Run itself over bounded scenarios: it must not panic,
// it may fail only with a typed error (a validation error of this
// package, or the engine's rejection or watchdog error under faults),
// and a run that succeeds is verified, with every idle DATA-bus cycle
// attributed to exactly one stall cause.
func FuzzRun(f *testing.F) {
	f.Add(false, uint8(1), uint8(1), uint8(1), uint16(255), uint8(0), uint8(126), uint8(0), int64(1))
	f.Add(false, uint8(2), uint8(0), uint8(0), uint16(511), uint8(3), uint8(30), uint8(2), int64(7))
	f.Add(false, uint8(7), uint8(1), uint8(2), uint16(100), uint8(15), uint8(0), uint8(3), int64(42))
	f.Add(true, uint8(3), uint8(1), uint8(1), uint16(300), uint8(2), uint8(62), uint8(0), int64(7))
	f.Add(true, uint8(1), uint8(0), uint8(0), uint16(64), uint8(4), uint8(14), uint8(3), int64(-3))
	f.Fuzz(func(t *testing.T, isTrace bool, pick, scheme, ctl uint8, n uint16, stride, depth, severity uint8, seed int64) {
		sc := fuzzScenario(isTrace, pick, scheme, ctl, n, stride, depth, severity, seed)
		out, err := Run(sc)
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
