package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

func TestRunAllKernelsBothModesVerified(t *testing.T) {
	for _, kn := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, mode := range []Mode{NaturalOrder, SMC} {
			for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
				out, err := Run(Scenario{
					KernelName: kn, N: 128, Scheme: scheme, Mode: mode,
					Placement: stream.Staggered, Seed: 42,
				})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", kn, mode, scheme, err)
				}
				if !out.Verified {
					t.Errorf("%s/%v/%v: not verified", kn, mode, scheme)
				}
				if out.PercentPeak <= 0 || out.PercentPeak > 100 {
					t.Errorf("%s/%v/%v: PercentPeak %.2f", kn, mode, scheme, out.PercentPeak)
				}
				if out.EffectiveMBps <= 0 || out.EffectiveMBps > 1600 {
					t.Errorf("%s/%v/%v: EffectiveMBps %.1f", kn, mode, scheme, out.EffectiveMBps)
				}
			}
		}
	}
}

func TestSMCBeatsNaturalOrderHeadline(t *testing.T) {
	// The paper's headline: streaming hardware with simple access ordering
	// improves performance by factors of 1.18 to 2.25 for our benchmarks.
	for _, kn := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			base := Scenario{KernelName: kn, N: 1024, Scheme: scheme, Placement: stream.Staggered, Seed: 7}
			nat := base
			nat.Mode = NaturalOrder
			smcSc := base
			smcSc.Mode = SMC
			smcSc.FIFODepth = 128
			n, err := Run(nat)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Run(smcSc)
			if err != nil {
				t.Fatal(err)
			}
			ratio := s.PercentPeak / n.PercentPeak
			if ratio <= 1.0 {
				t.Errorf("%s/%v: SMC %.1f%% does not beat natural order %.1f%%", kn, scheme, s.PercentPeak, n.PercentPeak)
			}
			if ratio > 3.2 {
				t.Errorf("%s/%v: ratio %.2f implausibly high", kn, scheme, ratio)
			}
		}
	}
}

func TestPercentAttainableForStrides(t *testing.T) {
	out, err := Run(Scenario{
		KernelName: "vaxpy", N: 256, Stride: 4, Scheme: addrmap.PI,
		Mode: SMC, FIFODepth: 64, Placement: stream.Staggered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.PercentPeak > 51 {
		t.Errorf("stride 4 PercentPeak = %.1f, cannot exceed 50", out.PercentPeak)
	}
	if out.PercentAttainable < out.PercentPeak*1.5 {
		t.Errorf("attainable %.1f should rescale peak %.1f", out.PercentAttainable, out.PercentPeak)
	}
	nat, err := Run(Scenario{
		KernelName: "vaxpy", N: 256, Stride: 4, Scheme: addrmap.CLI,
		Mode: NaturalOrder, Placement: stream.Staggered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nat.PercentAttainable <= nat.PercentPeak {
		t.Errorf("natural-order strided attainable %.1f should exceed peak %.1f", nat.PercentAttainable, nat.PercentPeak)
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []Scenario{
		{KernelName: "nope", N: 16},
		{KernelName: "copy", N: 0},
		{KernelName: "copy", N: 16, Stride: -1},
		{KernelName: "copy", N: 16, Mode: Mode(9)},
	}
	for i, sc := range cases {
		if _, err := Run(sc); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Only the zero Device stands for the default part: a Device that sets
// some fields and leaves Timing or Geometry zero is refused with
// ErrPartialDevice by Validate, Run (kernel and trace) and RunKernel,
// where it used to run silently as the default part.
func TestPartialDeviceRejected(t *testing.T) {
	def := rdram.DefaultConfig()
	for name, dev := range map[string]rdram.Config{
		"banks only":    {Geometry: rdram.Geometry{Banks: 16}},
		"refresh only":  {RefreshInterval: 5000},
		"timing only":   {Timing: def.Timing},
		"geometry only": {Geometry: def.Geometry},
	} {
		kernel := Scenario{KernelName: "daxpy", N: 64, Scheme: addrmap.PI, Mode: SMC, Device: dev}
		trace := Scenario{Scheme: addrmap.PI, Mode: SMC, Device: dev,
			Workload: &tracegen.Spec{Accesses: []workload.TraceAccess{{Addr: 0}, {Addr: 512}}}}
		for _, sc := range []Scenario{kernel, trace} {
			if err := sc.Validate(); !errors.Is(err, ErrPartialDevice) {
				t.Errorf("%s: Validate = %v, want ErrPartialDevice", name, err)
			}
			if _, err := Run(sc); !errors.Is(err, ErrPartialDevice) {
				t.Errorf("%s: Run = %v, want ErrPartialDevice", name, err)
			}
		}
		k, err := BuildKernel(Scenario{KernelName: "daxpy", N: 64, Scheme: addrmap.PI})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunKernel(k, kernel); !errors.Is(err, ErrPartialDevice) {
			t.Errorf("%s: RunKernel = %v, want ErrPartialDevice", name, err)
		}
	}
	// The zero Device is the default part, and a full override runs as
	// given.
	zero := Scenario{KernelName: "daxpy", N: 64, Scheme: addrmap.PI, Mode: SMC}
	spelled := zero
	spelled.Device = def
	slow := zero
	slow.Device = def
	slow.Device.Timing.TCAC += 8
	outs, err := RunAll([]Scenario{zero, spelled, slow}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != outs[1] {
		t.Errorf("the zero Device and DefaultConfig differ: %+v vs %+v", outs[0].Result, outs[1].Result)
	}
	if outs[2] == outs[0] {
		t.Error("a device with a slower t_CAC ran as the default part")
	}
}

func TestBuildKernelUsesLayout(t *testing.T) {
	k, err := BuildKernel(Scenario{KernelName: "vaxpy", N: 64, Scheme: addrmap.PI, Placement: stream.Staggered})
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Streams) != 4 {
		t.Fatalf("streams = %d", len(k.Streams))
	}
	seen := map[int64]bool{}
	for _, s := range k.Streams {
		seen[s.Base] = true
	}
	if len(seen) != 3 { // a, x, y vectors (y appears twice)
		t.Errorf("distinct bases = %d, want 3", len(seen))
	}
}

func TestSeedsAreDeterministic(t *testing.T) {
	sc := Scenario{KernelName: "daxpy", N: 64, Mode: SMC, Placement: stream.Staggered, Seed: 5}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.PercentPeak != b.PercentPeak {
		t.Errorf("non-deterministic outcome: %+v vs %+v", a, b)
	}
}

func TestModeAndPolicyStrings(t *testing.T) {
	if NaturalOrder.String() != "natural-order" || SMC.String() != "smc" {
		t.Error("mode strings wrong")
	}
	if !strings.Contains(smc.RoundRobin.String(), "robin") {
		t.Error("policy string wrong")
	}
}

func TestSkipVerify(t *testing.T) {
	out, err := Run(Scenario{KernelName: "copy", N: 64, Mode: SMC, Placement: stream.Staggered, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Verified {
		t.Error("Verified should be false when skipped")
	}
}

func TestWriteAllocateScenario(t *testing.T) {
	direct, err := Run(Scenario{KernelName: "copy", N: 256, Mode: NaturalOrder, Placement: stream.Staggered})
	if err != nil {
		t.Fatal(err)
	}
	wa, err := Run(Scenario{KernelName: "copy", N: 256, Mode: NaturalOrder, Placement: stream.Staggered, WriteAllocate: true})
	if err != nil {
		t.Fatal(err)
	}
	if wa.TransferredWords <= direct.TransferredWords {
		t.Error("write-allocate should move more data")
	}
	if !wa.Verified {
		t.Error("write-allocate run must still verify")
	}
}

// TestParseMode pins -mode's spellings: every one selects its controller
// in any case, each Mode's String form parses back to it, and anything
// else is an error rather than a silent SMC run.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{NaturalOrder, SMC} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"smc", SMC},
		{"SMC", SMC},
		{"natural", NaturalOrder},
		{"natural-order", NaturalOrder},
		{"Natural-Order", NaturalOrder},
		{"cache", NaturalOrder},
	} {
		for _, in := range []string{tc.in, strings.ToUpper(tc.in), strings.ToLower(tc.in)} {
			if got, err := ParseMode(in); err != nil || got != tc.want {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, tc.want)
			}
		}
	}
	for _, in := range []string{"bogus", "", "natural order", "conventional"} {
		_, err := ParseMode(in)
		if want := `unknown mode "` + in + `" (want smc or natural)`; err == nil || err.Error() != want {
			t.Errorf("ParseMode(%q) error = %v, want %q", in, err, want)
		}
	}
}

// TestRunKernelRejectsStreamsOutsideCapacity checks that a caller-built
// kernel reaching past either end of the device fails with RunKernel's
// capacity error before seeding maps a word, verified or not, and never
// panics in the mapper.
func TestRunKernelRejectsStreamsOutsideCapacity(t *testing.T) {
	capacity := int64(rdram.DefaultGeometry().CapacityWords())
	for _, c := range []struct {
		base, stride int64
		first, last  int64
	}{
		{capacity - 2, 1, capacity - 2, capacity + 1}, // runs off the top
		{capacity + 6, 1, capacity + 6, capacity + 9}, // starts above it
		{-3, 1, -3, 0},                           // starts below address 0
		{0, capacity / 2, 0, 3 * (capacity / 2)}, // strides past it
	} {
		for _, skip := range []bool{false, true} {
			k := &stream.Kernel{
				Name: "edge",
				Streams: []stream.Stream{
					{Name: "x", Base: 0, Stride: 1, Length: 4, Mode: stream.Read},
					{Name: "y", Base: c.base, Stride: c.stride, Length: 4, Mode: stream.Write},
				},
				Compute: func(_ int, in []float64) []float64 { return in },
			}
			want := fmt.Sprintf(`sim: stream "y" spans addresses [%d, %d] outside device capacity %d words`, c.first, c.last, capacity)
			_, err := RunKernel(k, Scenario{Scheme: addrmap.PI, Mode: SMC, SkipVerify: skip})
			if err == nil || err.Error() != want {
				t.Errorf("base %d stride %d SkipVerify %v: err %v, want %q", c.base, c.stride, skip, err, want)
			}
		}
	}
}
