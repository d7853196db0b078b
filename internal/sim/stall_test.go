package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/fault"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// TestStallInvariantOnEveryOutcome draws seeded scenarios across the
// model — kernel × {CLI, PI} × {natural order, SMC, conventional} ×
// stride × FIFO depth × N × fault severity, plus a read-only scan (the
// one shape whose SMC run ends in a CPU tail after the last DATA packet)
// and the four trace generator patterns replayed in order and reordered —
// and runs each with no collector attached. On every draw the outcome's stall
// attribution must tile the idle time exactly (Σ Stalls = Cycles −
// DataBusBusy), and the device's per-bank counters must sum to the
// outcome's Stats.
func TestStallInvariantOnEveryOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	type draw struct {
		sc Scenario
		k  *stream.Kernel // a caller-built kernel, run through RunKernel
	}
	var draws []draw
	for range 160 {
		sc := Scenario{
			KernelName: stream.Benchmarks[rng.Intn(len(stream.Benchmarks))].Name,
			N:          pick(128, 256, 512, 1024, 2048, 4096),
			Stride:     int64(pick(1, 2, 4, 8, 16)),
			Scheme:     addrmap.Scheme(rng.Intn(2)),
			Controller: []string{"natural-order", "smc", "conventional"}[rng.Intn(3)],
			FIFODepth:  pick(8, 16, 32, 64, 128),
			Placement:  stream.Staggered,
			Seed:       rng.Int63(),
		}
		if sev := pick(0, 1, 2, 4); sev > 0 {
			f := fault.Scaled(rng.Int63(), sev)
			sc.Fault = &f
		}
		draws = append(draws, draw{sc: sc})
	}
	for _, ctl := range []string{"natural-order", "smc", "conventional"} {
		n, stride := pick(256, 1024, 4096), int64(pick(1, 4))
		k := &stream.Kernel{
			Name:    "scan",
			Streams: []stream.Stream{{Name: "x", Base: 0, Stride: stride, Length: n, Mode: stream.Read}},
			Compute: func(int, []float64) []float64 { return nil },
		}
		draws = append(draws, draw{sc: Scenario{Scheme: addrmap.Scheme(rng.Intn(2)), Controller: ctl, FIFODepth: pick(8, 128)}, k: k})
	}
	for _, pattern := range []string{tracegen.PatternStrided, tracegen.PatternChase, tracegen.PatternHotRow, tracegen.PatternLLMKV} {
		for _, ctl := range []string{"natural-order", "smc"} {
			prog := &tracegen.Program{
				Name: pattern, Seed: rng.Int63(),
				Phases: []tracegen.Phase{{Pattern: pattern, Accesses: 2048, FootprintWords: 1 << 16, WriteFraction: 0.3}},
			}
			draws = append(draws, draw{sc: Scenario{
				Scheme: addrmap.Scheme(rng.Intn(2)), Controller: ctl,
				FIFODepth: pick(8, 32, 128),
				Workload:  &tracegen.Spec{Program: prog},
			}})
		}
	}

	for i, d := range draws {
		name := d.sc.Label()
		if d.k != nil {
			name = d.k.Name + name
		}
		t.Run(fmt.Sprintf("%d/%s", i, name), func(t *testing.T) {
			var out Outcome
			var err error
			if d.k != nil {
				out, err = RunKernel(d.k, d.sc)
			} else {
				out, err = Run(d.sc)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !out.Verified {
				t.Fatal("run not verified")
			}
			if got, want := stallSum(out.Device), out.Cycles-out.Device.DataBusBusy; got != want {
				t.Errorf("Σ Stalls = %d, want Cycles−DataBusBusy = %d−%d = %d (stalls %v)",
					got, out.Cycles, out.Device.DataBusBusy, want, out.Device.Stalls)
			}
			res, dev, err := runOnDevice(d.sc, d.k)
			if err != nil {
				t.Fatal(err)
			}
			if res != out.Result {
				t.Fatalf("timing-only rerun diverged:\n  got  %+v\n  want %+v", res, out.Result)
			}
			var sum telemetry.BankCounters
			for _, b := range dev.PerBank() {
				sum.Add(b)
			}
			if sum != opCounts(out.Device) {
				t.Errorf("per-bank counters sum to %+v, Stats has %+v", sum, opCounts(out.Device))
			}
		})
	}
}

// runOnDevice reruns a scenario's controller — over k when it is not
// nil — timing-only on a device of its own and returns that device too,
// so a test can read the per-bank counters Run keeps inside. Timing never
// depends on data, so the result equals Run's.
func runOnDevice(sc Scenario, k *stream.Kernel) (engine.Result, *rdram.Device, error) {
	sc = sc.withDefaults()
	dev, scr, err := newDevice(sc)
	if err != nil {
		return engine.Result{}, nil, err
	}
	defer scr.release(dev)
	dev.SetTimingOnly(true)
	if sc.Workload != nil {
		accs, err := sc.Workload.Materialize()
		if err != nil {
			return engine.Result{}, nil, err
		}
		res, err := workload.ReplayTrace(dev, workload.TraceOptions{
			Scheme: sc.Scheme, LineWords: sc.LineWords,
			Outstanding: sc.Workload.Outstanding,
			Reorder:     sc.Controller == "smc",
			Window:      sc.FIFODepth,
		}, accs)
		return res, dev, err
	}
	if k == nil {
		if k, err = BuildKernel(sc); err != nil {
			return engine.Result{}, nil, err
		}
	}
	res, err := runController(dev, k, sc, nil)
	return res, dev, err
}
