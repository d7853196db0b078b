package natorder

import (
	"math"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// readOnly builds a single read stream kernel (a pure cacheline-fill
// workload, as in the paper's Figure 8).
func readOnly(base int64, n int, stride int64) *stream.Kernel {
	return &stream.Kernel{
		Name: "read-only",
		Streams: []stream.Stream{
			{Name: "x", Base: base, Stride: stride, Length: n, Mode: stream.Read},
		},
		Compute: func(int, []float64) []float64 { return nil },
	}
}

// seedVectors gives every element of the kernel's streams a
// deterministic value through the golden image's walk, then replays the
// kernel over the image. It returns the golden, which Run takes as its
// store image, and a map shadow of the seeded words for the independent
// check (verifyFunctional).
func seedVectors(dev *rdram.Device, scheme addrmap.Scheme, lineWords int, k *stream.Kernel) (*engine.Image, map[int64]uint64) {
	m := addrmap.MustNew(scheme, dev.Config().Geometry, lineWords)
	golden := new(engine.Image)
	var n float64
	golden.Seed(dev, &m, k, func() uint64 { n++; return math.Float64bits(n * 0.25) })
	shadow := make(map[int64]uint64)
	golden.Range(func(addr int64, v uint64) bool { shadow[addr] = v; return true })
	golden.Replay(k)
	return golden, shadow
}

// runKernel builds a device, lays the kernel's vectors out, seeds them,
// runs the kernel with the golden as store image, and returns the result
// plus the device and shadow memory for verification.
func runKernel(t *testing.T, factory string, n int, strideW int64, cfg Config, placement stream.Placement) (Result, *rdram.Device, *stream.Kernel, map[int64]uint64) {
	t.Helper()
	f, ok := stream.FactoryByName(factory)
	if !ok {
		t.Fatalf("no factory %q", factory)
	}
	g := rdram.DefaultGeometry()
	bases := stream.MustLayout(cfg.Scheme, g, cfg.LineWords, f.Footprints(n, strideW), placement)
	k := f.Make(bases, n, strideW)
	dev := rdram.NewDevice(rdram.DefaultConfig())
	golden, shadow := seedVectors(dev, cfg.Scheme, cfg.LineWords, k)
	cfg.Store = golden
	res, err := Run(dev, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, dev, k, shadow
}

// verifyFunctional checks the device contents against the kernel's golden
// replay over the shadow memory.
func verifyFunctional(t *testing.T, dev *rdram.Device, scheme addrmap.Scheme, lineWords int, k *stream.Kernel, shadow map[int64]uint64) {
	t.Helper()
	k.Replay(
		func(addr int64) uint64 { return shadow[addr] },
		func(addr int64, v uint64) { shadow[addr] = v },
	)
	m := addrmap.MustNew(scheme, dev.Config().Geometry, lineWords)
	for addr, want := range shadow {
		loc := m.Map(addr)
		if got := dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word); got != want {
			t.Fatalf("addr %d: device has %x, golden %x", addr, got, want)
		}
	}
}

func TestSingleStreamCLIMatchesTLCC(t *testing.T) {
	// Eq 5.2: a lone stream reads one cacheline every
	// T_LCC = tRAC + tPACK*(Lc/wp - 1) = 24 cycles under CLI closed-page.
	g := rdram.DefaultGeometry()
	bases := stream.MustLayout(addrmap.CLI, g, 4, []int64{1024}, stream.Staggered)
	k := readOnly(bases[0], 1024, 1)
	dev := rdram.NewDevice(rdram.DefaultConfig())
	var rec rdram.Recorder
	dev.Trace = rec.Hook()
	res, err := Run(dev, k, Config{Scheme: addrmap.CLI, LineWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	acts := rec.ByBus(0)
	var actStarts []int64
	for _, ev := range acts {
		if ev.Kind == rdram.TraceActivate {
			actStarts = append(actStarts, ev.Start)
		}
	}
	if len(actStarts) != 256 {
		t.Fatalf("activates = %d, want 256 (one per line)", len(actStarts))
	}
	for i := 1; i < 16; i++ {
		if got := actStarts[i] - actStarts[i-1]; got != 24 {
			t.Fatalf("ACT %d spacing = %d, want T_LCC = 24", i, got)
		}
	}
	// T = 24/4 = 6 cycles/word -> 33.3% of peak (paper's single-stream
	// closed-page bound).
	if res.PercentPeak < 32 || res.PercentPeak > 34 {
		t.Errorf("PercentPeak = %.2f, want ~33.3", res.PercentPeak)
	}
}

func TestSingleStreamPIBeatsCLI(t *testing.T) {
	g := rdram.DefaultGeometry()
	run := func(scheme addrmap.Scheme) float64 {
		bases := stream.MustLayout(scheme, g, 4, []int64{1024}, stream.Staggered)
		k := readOnly(bases[0], 1024, 1)
		dev := rdram.NewDevice(rdram.DefaultConfig())
		res, err := Run(dev, k, Config{Scheme: scheme, LineWords: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.PercentPeak
	}
	cli, pi := run(addrmap.CLI), run(addrmap.PI)
	if pi <= cli {
		t.Errorf("PI (%.1f%%) should beat CLI (%.1f%%) for unit-stride streams", pi, cli)
	}
	// Eq 5.7/5.8 put the open-page single-stream bound near 60%.
	if pi < 55 || pi > 70 {
		t.Errorf("PI single-stream = %.1f%%, want ~60%%", pi)
	}
}

func TestCopyCLISteadyStatePipe(t *testing.T) {
	// Copy (s=2) under CLI: Eq 5.4 gives T_pipe = tRAC + tRR = 28 cycles
	// per round of two cachelines (8 words) -> 57.1% of peak.
	res, dev, k, shadow := runKernel(t, "copy", 1024, 1, Config{Scheme: addrmap.CLI, LineWords: 4}, stream.Staggered)
	if res.PercentPeak < 55 || res.PercentPeak > 59 {
		t.Errorf("copy CLI PercentPeak = %.2f, want ~57.1", res.PercentPeak)
	}
	verifyFunctional(t, dev, addrmap.CLI, 4, k, shadow)
}

func TestAllKernelsFunctionalBothSchemes(t *testing.T) {
	for _, f := range stream.Benchmarks {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, wa := range []bool{false, true} {
				cfg := Config{Scheme: scheme, LineWords: 4, WriteAllocate: wa}
				res, dev, k, shadow := runKernel(t, f.Name, 128, 1, cfg, stream.Staggered)
				if res.PercentPeak <= 0 || res.PercentPeak > 100 {
					t.Errorf("%s/%v wa=%v: PercentPeak = %.2f out of range", f.Name, scheme, wa, res.PercentPeak)
				}
				verifyFunctional(t, dev, scheme, 4, k, shadow)
			}
		}
	}
}

// multiKernel builds an s-stream loop over s independent vectors
// (sr reads, one write), laid out staggered.
func multiKernel(t *testing.T, scheme addrmap.Scheme, sr, n int) *stream.Kernel {
	t.Helper()
	g := rdram.DefaultGeometry()
	fps := make([]int64, sr+1)
	for i := range fps {
		fps[i] = int64(n)
	}
	bases := stream.MustLayout(scheme, g, 4, fps, stream.Staggered)
	return stream.MultiStream(sr, 1, bases, n, 1)
}

func TestMoreStreamsMoreBandwidth(t *testing.T) {
	// The paper: "Maximum effective bandwidth increases with the number of
	// streams in the computation: loops with more streams exploit the
	// Direct RDRAM's available concurrency better." Use independent
	// vectors, as in the paper's eight-stream experiment.
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		cfg := Config{Scheme: scheme, LineWords: 4}
		var prev float64
		for _, sr := range []int{1, 3, 7} {
			k := multiKernel(t, scheme, sr, 1024)
			dev := rdram.NewDevice(rdram.DefaultConfig())
			seedVectors(dev, scheme, 4, k)
			res, err := Run(dev, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.PercentPeak <= prev {
				t.Errorf("%v: s=%d gives %.1f%%, not above s-1 level %.1f%%",
					scheme, sr+1, res.PercentPeak, prev)
			}
			prev = res.PercentPeak
		}
	}
}

func TestStrideWastesBandwidth(t *testing.T) {
	// Figure 8: effective bandwidth collapses as stride grows, and is flat
	// once stride exceeds the cacheline size.
	cfg := Config{Scheme: addrmap.CLI, LineWords: 4}
	g := rdram.DefaultGeometry()
	var prev float64 = 101
	for _, stride := range []int64{1, 2, 4} {
		bases := stream.MustLayout(addrmap.CLI, g, 4, []int64{1024 * stride}, stream.Staggered)
		k := readOnly(bases[0], 1024, stride)
		dev := rdram.NewDevice(rdram.DefaultConfig())
		res, err := Run(dev, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PercentPeak >= prev {
			t.Errorf("stride %d: %.1f%% should be below stride-halved %.1f%%", stride, res.PercentPeak, prev)
		}
		prev = res.PercentPeak
	}
	// Beyond the line size the bound is flat: strides 8 and 16 equal.
	perc := func(stride int64) float64 {
		bases := stream.MustLayout(addrmap.CLI, g, 4, []int64{1024 * stride}, stream.Staggered)
		dev := rdram.NewDevice(rdram.DefaultConfig())
		res, err := Run(dev, readOnly(bases[0], 1024, stride), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PercentPeak
	}
	p8, p16 := perc(8), perc(16)
	if math.Abs(p8-p16) > 0.5 {
		t.Errorf("stride 8 (%.2f%%) and 16 (%.2f%%) should match beyond the line size", p8, p16)
	}
	// "natural-order cacheline accesses only deliver 10% or less" there.
	if p16 > 10 {
		t.Errorf("stride 16 = %.2f%%, want <= 10%%", p16)
	}
}

func TestWriteAllocateAddsTraffic(t *testing.T) {
	cfg := Config{Scheme: addrmap.CLI, LineWords: 4}
	direct, _, _, _ := runKernel(t, "copy", 1024, 1, cfg, stream.Staggered)
	cfg.WriteAllocate = true
	wa, _, _, _ := runKernel(t, "copy", 1024, 1, cfg, stream.Staggered)
	// Write-allocate fetches every store line before writing it back:
	// copy moves 3 lines per round instead of 2.
	if wa.TransferredWords <= direct.TransferredWords {
		t.Errorf("write-allocate transferred %d words, direct %d; expected more",
			wa.TransferredWords, direct.TransferredWords)
	}
	if wa.PercentPeak >= direct.PercentPeak {
		t.Errorf("write-allocate %.1f%% should be below direct %.1f%%", wa.PercentPeak, direct.PercentPeak)
	}
}

func TestTrafficAccounting(t *testing.T) {
	res, _, _, _ := runKernel(t, "copy", 1024, 1, Config{Scheme: addrmap.CLI, LineWords: 4}, stream.Staggered)
	if res.UsefulWords != 2048 {
		t.Errorf("UsefulWords = %d, want 2048", res.UsefulWords)
	}
	// Unit stride: every transferred word is useful. 256 lines read + 256
	// written, 4 words each.
	if res.TransferredWords != 2048 {
		t.Errorf("TransferredWords = %d, want 2048", res.TransferredWords)
	}
	if res.Device.Reads != 512 || res.Device.Writes != 512 {
		t.Errorf("device packets = %d/%d, want 512/512", res.Device.Reads, res.Device.Writes)
	}
}

func TestPIPageHitRateIsHigh(t *testing.T) {
	res, _, _, _ := runKernel(t, "daxpy", 1024, 1, Config{Scheme: addrmap.PI, LineWords: 4}, stream.Staggered)
	if hr := res.Device.HitRate(); hr < 0.9 {
		t.Errorf("PI open-page hit rate = %.2f, want > 0.9 for unit-stride streams", hr)
	}
}

func TestCLIClosedPageHitsOnlyWithinBursts(t *testing.T) {
	// Under the closed-page policy every cacheline burst re-activates its
	// row; only the burst's trailing packets hit the open row. With
	// 2 packets per line, hits == line transactions == misses.
	res, _, _, _ := runKernel(t, "daxpy", 128, 1, Config{Scheme: addrmap.CLI, LineWords: 4}, stream.Staggered)
	if res.Device.PageHits != res.Device.PageMisses {
		t.Errorf("hits = %d, misses = %d; want equal (one miss + one hit per 2-packet line)",
			res.Device.PageHits, res.Device.PageMisses)
	}
	if res.Device.Activates != res.Device.PageMisses {
		t.Errorf("activates = %d, misses = %d; want equal", res.Device.Activates, res.Device.PageMisses)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	k := stream.Copy(0, 1<<12, 16, 1)
	if _, err := Run(dev, k, Config{Scheme: addrmap.CLI, LineWords: 3}); err == nil {
		t.Error("expected error for odd line size")
	}
	if _, err := Run(dev, k, Config{Scheme: addrmap.CLI, LineWords: 256}); err == nil {
		t.Error("expected error for line larger than page")
	}
	bad := stream.Copy(0, 1<<12, 16, 1)
	bad.Compute = nil
	if _, err := Run(dev, bad, Config{Scheme: addrmap.CLI, LineWords: 4}); err == nil {
		t.Error("expected error for invalid kernel")
	}
}

func TestAlignedPlacementIsNoFasterThanStaggered(t *testing.T) {
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		cfg := Config{Scheme: scheme, LineWords: 4}
		al, _, _, _ := runKernel(t, "vaxpy", 1024, 1, cfg, stream.Aligned)
		st, _, _, _ := runKernel(t, "vaxpy", 1024, 1, cfg, stream.Staggered)
		if al.PercentPeak > st.PercentPeak+0.01 {
			t.Errorf("%v: aligned %.2f%% beats staggered %.2f%%", scheme, al.PercentPeak, st.PercentPeak)
		}
	}
}

func TestOutstandingWindow(t *testing.T) {
	// A blocking (depth-1) miss path must be slower than the Direct
	// RDRAM's four-deep pipeline; out-of-range values are rejected.
	base := Config{Scheme: addrmap.CLI, LineWords: 4}
	four, _, _, _ := runKernel(t, "copy", 1024, 1, base, stream.Staggered)
	blocking := base
	blocking.Outstanding = 1
	one, _, _, _ := runKernel(t, "copy", 1024, 1, blocking, stream.Staggered)
	if one.PercentPeak >= four.PercentPeak {
		t.Errorf("blocking path %.1f%% should trail pipelined %.1f%%", one.PercentPeak, four.PercentPeak)
	}
	dev := rdram.NewDevice(rdram.DefaultConfig())
	k := stream.Copy(0, 1<<12, 16, 1)
	for _, bad := range []int{-1, 5} {
		cfg := base
		cfg.Outstanding = bad
		if _, err := Run(dev, k, cfg); err == nil {
			t.Errorf("Outstanding=%d should be rejected", bad)
		}
	}
}

func TestNaturalOrderSwapFunctional(t *testing.T) {
	g := rdram.DefaultGeometry()
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		bases := stream.MustLayout(scheme, g, 4, []int64{256, 256}, stream.Staggered)
		k := stream.Swap(bases[0], bases[1], 256, 1)
		dev := rdram.NewDevice(rdram.DefaultConfig())
		golden, shadow := seedVectors(dev, scheme, 4, k)
		if _, err := Run(dev, k, Config{Scheme: scheme, LineWords: 4, Store: golden}); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		verifyFunctional(t, dev, scheme, 4, k, shadow)
	}
}

func TestPagePolicyOverride(t *testing.T) {
	cases := []struct {
		scheme addrmap.Scheme
		pol    PagePolicy
		want   bool
	}{
		{addrmap.CLI, PairedPolicy, true},
		{addrmap.PI, PairedPolicy, false},
		{addrmap.PI, ForceClosed, true},
		{addrmap.CLI, ForceOpen, false},
	}
	for _, c := range cases {
		cfg := Config{Scheme: c.scheme, Policy: c.pol}
		if cfg.closedPage() != c.want {
			t.Errorf("%v/%v: closedPage = %v", c.scheme, c.pol, cfg.closedPage())
		}
	}
	if PairedPolicy.String() != "paired" || ForceClosed.String() != "closed" || ForceOpen.String() != "open" {
		t.Error("policy strings wrong")
	}
	// A PI+closed run really precharges (no page hits beyond line bursts).
	cfg := Config{Scheme: addrmap.PI, LineWords: 4, Policy: ForceClosed}
	res, _, _, _ := runKernel(t, "daxpy", 256, 1, cfg, stream.Staggered)
	if res.Device.PageHits != res.Device.PageMisses {
		t.Errorf("PI+closed hits=%d misses=%d, want equal (intra-burst only)",
			res.Device.PageHits, res.Device.PageMisses)
	}
}
