package rdramstream_test

import (
	"errors"
	"math"
	"testing"

	"rdramstream"
	"rdramstream/internal/sim"
)

func TestFacadeQuickstart(t *testing.T) {
	out, err := rdramstream.Simulate(rdramstream.Scenario{
		KernelName: "daxpy",
		N:          1024,
		Scheme:     rdramstream.PI,
		Mode:       rdramstream.SMC,
		FIFODepth:  128,
		Placement:  rdramstream.Staggered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Error("quickstart run should verify")
	}
	if out.PercentPeak < 85 {
		t.Errorf("PercentPeak = %.1f, want near peak", out.PercentPeak)
	}
}

func TestFacadeKernelsList(t *testing.T) {
	ks := rdramstream.Kernels()
	want := map[string]bool{"copy": true, "daxpy": true, "hydro": true, "vaxpy": true}
	if len(ks) != len(want) {
		t.Fatalf("Kernels() = %v", ks)
	}
	for _, k := range ks {
		if !want[k] {
			t.Errorf("unexpected kernel %q", k)
		}
	}
}

func TestFacadeCustomKernel(t *testing.T) {
	// A custom two-stream kernel: y[i] = sqrt(x[i]).
	bases, err := rdramstream.LayoutVectors(rdramstream.CLI, rdramstream.Staggered, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	k := &rdramstream.Kernel{
		Name: "sqrt",
		Streams: []rdramstream.Stream{
			{Name: "x", Base: bases[0], Stride: 1, Length: 256, Mode: rdramstream.Read},
			{Name: "y", Base: bases[1], Stride: 1, Length: 256, Mode: rdramstream.Write},
		},
		Compute: func(_ int, in []float64) []float64 {
			return []float64{math.Sqrt(in[0])}
		},
	}
	out, err := rdramstream.SimulateKernel(k, rdramstream.Scenario{
		Scheme: rdramstream.CLI, Mode: rdramstream.SMC, FIFODepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Error("custom kernel should verify")
	}
	if out.UsefulWords != 512 {
		t.Errorf("UsefulWords = %d, want 512", out.UsefulWords)
	}
}

func TestFacadeBounds(t *testing.T) {
	b := rdramstream.DefaultBounds()
	if got := b.TLCC(); got != 24 {
		t.Errorf("TLCC = %v", got)
	}
	if dev := rdramstream.DefaultDevice(); dev.Geometry.Banks != 8 {
		t.Errorf("default banks = %d", dev.Geometry.Banks)
	}
}

func TestFacadeNaturalOrderVsSMC(t *testing.T) {
	base := rdramstream.Scenario{KernelName: "vaxpy", N: 1024, Scheme: rdramstream.CLI, Placement: rdramstream.Staggered}
	nat := base
	nat.Mode = rdramstream.NaturalOrder
	smcSc := base
	smcSc.Mode = rdramstream.SMC
	smcSc.FIFODepth = 128
	n, err := rdramstream.Simulate(nat)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rdramstream.Simulate(smcSc)
	if err != nil {
		t.Fatal(err)
	}
	if s.PercentPeak <= n.PercentPeak {
		t.Errorf("SMC %.1f%% should beat natural order %.1f%%", s.PercentPeak, n.PercentPeak)
	}
}

// tuneScenario is the vaxpy scenario the tuning tests sweep.
func tuneScenario(scheme rdramstream.Interleave, n int) rdramstream.Scenario {
	return rdramstream.Scenario{KernelName: "vaxpy", N: n, Scheme: scheme, Placement: rdramstream.Staggered}
}

func TestTuneFIFODepthPicksSmallestNearOptimal(t *testing.T) {
	depths := []int{8, 16, 32, 64, 128}
	choice, results, err := rdramstream.TuneFIFODepth(tuneScenario(rdramstream.PI, 1024), depths, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(depths) {
		t.Fatalf("results = %d", len(results))
	}
	// The choice must be near-optimal and no deeper than the best point.
	best := 0.0
	for _, r := range results {
		best = max(best, r.PercentPeak)
	}
	var chosen rdramstream.DepthResult
	for _, r := range results {
		if r.Depth == choice {
			chosen = r
		}
	}
	if chosen.Depth == 0 {
		t.Fatalf("choice %d not among results", choice)
	}
	if chosen.PercentPeak < best-3 {
		t.Errorf("chosen depth %d at %.1f%% is not within tolerance of best %.1f%%", choice, chosen.PercentPeak, best)
	}
	// A shallower depth must not also be within tolerance.
	for _, r := range results {
		if r.Depth < choice && r.PercentPeak >= best-3 {
			t.Errorf("depth %d already within tolerance; choice %d too deep", r.Depth, choice)
		}
	}
}

func TestTuneFIFODepthZeroToleranceFindsPeak(t *testing.T) {
	choice, results, err := rdramstream.TuneFIFODepth(tuneScenario(rdramstream.CLI, 512), []int{8, 32, 128}, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, bestDepth := 0.0, 0
	for _, r := range results {
		if r.PercentPeak > best {
			best, bestDepth = r.PercentPeak, r.Depth
		}
	}
	// With zero tolerance the choice is a depth achieving the maximum
	// (the smallest such depth).
	var chosen float64
	for _, r := range results {
		if r.Depth == choice {
			chosen = r.PercentPeak
		}
	}
	if chosen != best {
		t.Errorf("choice %d at %.2f%% is not the best %.2f%% (depth %d)", choice, chosen, best, bestDepth)
	}
}

func TestTuneFIFODepthErrors(t *testing.T) {
	sc := tuneScenario(rdramstream.CLI, 64)
	for _, tc := range []struct {
		name      string
		depths    []int
		tolerance float64
	}{
		{"empty depth list", nil, 1},
		{"negative tolerance", []int{8}, -1},
		{"sub-packet depth", []int{1}, 1},
		{"zero depth", []int{8, 0}, 1},
		{"negative depth", []int{-8}, 1},
	} {
		if _, _, err := rdramstream.TuneFIFODepth(sc, tc.depths, tc.tolerance); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
	}
}

// TestFacadeTuneDevice checks that TuneFIFODepth reads Device as a
// scenario does: the zero Device is the default part, and a partial one
// is an ErrPartialDevice, not the default part.
func TestFacadeTuneDevice(t *testing.T) {
	sc := rdramstream.Scenario{KernelName: "copy", N: 256, Scheme: rdramstream.PI}
	depths := []int{16, 32}
	_, zero, err := rdramstream.TuneFIFODepth(sc, depths, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Device = rdramstream.DefaultDevice()
	if _, def, err := rdramstream.TuneFIFODepth(sc, depths, 2); err != nil || def[0] != zero[0] || def[1] != zero[1] {
		t.Errorf("default part: %v, %v; zero Device: %v", def, err, zero)
	}
	sc.Device = rdramstream.DeviceConfig{}
	sc.Device.Geometry.Banks = 16
	if _, _, err := rdramstream.TuneFIFODepth(sc, depths, 2); !errors.Is(err, sim.ErrPartialDevice) {
		t.Errorf("partial Device: err %v, want ErrPartialDevice", err)
	}
}
