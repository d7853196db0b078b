package sim

import (
	"fmt"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/cache"
	"rdramstream/internal/fault"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/tracegen"
)

// tilingWindow is deliberately odd, so window boundaries cut packets and
// idle segments.
const tilingWindow = 97

// TestWindowTiling checks the device's per-window counters against the
// outcome on every kernel × {CLI, PI} × {natural order (plain,
// write-allocate, cache), SMC, conventional}, a read-only scan whose SMC
// run ends in a CPU tail, and the four trace generator patterns under both
// trace controllers, each at fault severities 0 and 3. DATA packets and
// idle DATA-bus cycles never overlap, so in every window the run covers
// completely the DATA bus's busy cycles and the stalls add up to the
// window, the last window holds the rest of Cycles, no window past Cycles
// holds either, and each column sums to the outcome's total.
func TestWindowTiling(t *testing.T) {
	type draw struct {
		name string
		sc   Scenario
		k    *stream.Kernel // a caller-built kernel, run through RunKernel
	}
	var draws []draw
	for _, f := range stream.Benchmarks {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			base := Scenario{KernelName: f.Name, N: 512, Scheme: scheme, FIFODepth: 32, Placement: stream.Staggered}
			variants := map[string]func(*Scenario){
				"natural-order":    func(sc *Scenario) { sc.Controller = "natural-order" },
				"natural-order+wa": func(sc *Scenario) { sc.Controller = "natural-order"; sc.WriteAllocate = true },
				"natural-order+cache": func(sc *Scenario) {
					sc.Controller = "natural-order"
					sc.Cache = &cache.Config{SizeWords: 2048, LineWords: 4, Ways: 2}
				},
				"smc":          func(sc *Scenario) { sc.Controller = "smc" },
				"conventional": func(sc *Scenario) { sc.Controller = "conventional" },
			}
			for name, mut := range variants {
				sc := base
				mut(&sc)
				draws = append(draws, draw{name: fmt.Sprintf("%s/%v/%s", f.Name, scheme, name), sc: sc})
			}
		}
	}
	scan := &stream.Kernel{
		Name:    "scan",
		Streams: []stream.Stream{{Name: "x", Base: 0, Stride: 1, Length: 1024, Mode: stream.Read}},
		Compute: func(int, []float64) []float64 { return nil },
	}
	for _, ctl := range []string{"natural-order", "smc", "conventional"} {
		draws = append(draws, draw{name: "scan/" + ctl, sc: Scenario{Scheme: addrmap.PI, Controller: ctl, FIFODepth: 128}, k: scan})
	}
	for _, pattern := range []string{tracegen.PatternStrided, tracegen.PatternChase, tracegen.PatternHotRow, tracegen.PatternLLMKV} {
		for _, ctl := range []string{"natural-order", "smc"} {
			prog := &tracegen.Program{
				Name: pattern, Seed: 5,
				Phases: []tracegen.Phase{{Pattern: pattern, Accesses: 2048, FootprintWords: 1 << 16, WriteFraction: 0.3}},
			}
			draws = append(draws, draw{name: "trace/" + pattern + "/" + ctl, sc: Scenario{
				Scheme: addrmap.PI, Controller: ctl, FIFODepth: 32,
				Workload: &tracegen.Spec{Program: prog},
			}})
		}
	}

	for _, d := range draws {
		for _, sev := range []int{0, 3} {
			sc := d.sc
			if sev > 0 {
				f := fault.Scaled(11, sev)
				sc.Fault = &f
			}
			t.Run(fmt.Sprintf("%s/sev%d", d.name, sev), func(t *testing.T) {
				col := telemetry.New(telemetry.Options{Window: tilingWindow})
				sc.Telemetry = col
				var out Outcome
				var err error
				if d.k != nil {
					out, err = RunKernel(d.k, sc)
				} else {
					out, err = Run(sc)
				}
				if err != nil {
					t.Fatal(err)
				}
				checkTiling(t, col.Windows, out)
			})
		}
	}
}

// checkTiling asserts that windows tile out's DATA-bus time exactly.
func checkTiling(t *testing.T, windows []telemetry.WindowCounts, out Outcome) {
	t.Helper()
	var busy int64
	var stalls [telemetry.NumStallCauses]int64
	for i, w := range windows {
		covered := min(out.Cycles-int64(i)*tilingWindow, tilingWindow)
		tiled := w.Busy[2]
		for c, n := range w.Stalls {
			tiled += n
			stalls[c] += n
		}
		busy += w.Busy[2]
		if tiled != max(covered, 0) {
			t.Errorf("window %d (of %d, %d cycles): data_busy %d + stalls %d = %d, want %d",
				i, len(windows), out.Cycles, w.Busy[2], tiled-w.Busy[2], tiled, max(covered, 0))
		}
	}
	if n := int64(len(windows)) * tilingWindow; n < out.Cycles {
		t.Errorf("%d windows cover %d cycles, run has %d", len(windows), n, out.Cycles)
	}
	if busy != out.Device.DataBusBusy {
		t.Errorf("data_busy column sums to %d, outcome DataBusBusy %d", busy, out.Device.DataBusBusy)
	}
	if stalls != out.Device.Stalls {
		t.Errorf("stall columns sum to %v, outcome Stalls %v", stalls, out.Device.Stalls)
	}
}
