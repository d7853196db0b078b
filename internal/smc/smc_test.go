package smc

import (
	"math"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// seedVectors fills the kernel's stream elements with a deterministic
// pattern and returns a shadow copy keyed by word address.
func seedVectors(dev *rdram.Device, scheme addrmap.Scheme, lineWords int, k *stream.Kernel) map[int64]uint64 {
	m := addrmap.MustNew(scheme, dev.Config().Geometry, lineWords)
	shadow := make(map[int64]uint64)
	for si, s := range k.Streams {
		for i := 0; i < s.Length; i++ {
			addr := s.Addr(i)
			v := math.Float64bits(float64(si+1) + float64(i)*0.25)
			loc := m.Map(addr)
			dev.PokeWord(loc.Bank, loc.Row, loc.Col, loc.Word, v)
			shadow[addr] = v
		}
	}
	return shadow
}

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

// runSMC lays out a benchmark kernel, seeds memory, and runs the SMC.
func runSMC(t *testing.T, factory string, n int, strideW int64, cfg Config, placement stream.Placement) (Result, *rdram.Device, *stream.Kernel, map[int64]uint64) {
	t.Helper()
	f, ok := stream.FactoryByName(factory)
	if !ok {
		t.Fatalf("no factory %q", factory)
	}
	g := rdram.DefaultGeometry()
	bases := stream.MustLayout(cfg.Scheme, g, cfg.LineWords, f.Footprints(n, strideW), placement)
	k := f.Make(bases, n, strideW)
	dev := rdram.NewDevice(rdram.DefaultConfig())
	shadow := seedVectors(dev, cfg.Scheme, cfg.LineWords, k)
	res, err := Run(dev, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, dev, k, shadow
}

// drain collects every group p yields, in order.
func drain(p *planner) []group {
	var groups []group
	for p.more() {
		groups = append(groups, p.cur)
		p.advance()
	}
	return groups
}

// plan is the test harness for the planner: every group of s, planned
// through a fresh planner.
func plan(m addrmap.Mapper, s stream.Stream) []group {
	var p planner
	p.reset(s, &m)
	return drain(&p)
}

func TestPlanStreamUnitStride(t *testing.T) {
	m := addrmap.MustNew(addrmap.CLI, rdram.DefaultGeometry(), 4)
	groups := plan(m, stream.Stream{Base: 0, Stride: 1, Length: 8, Mode: stream.Read})
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4 (two elements per packet)", len(groups))
	}
	for gi, g := range groups {
		if g.n() != 2 {
			t.Errorf("group %d has %d elems, want 2", gi, g.n())
		}
		if g.elo != gi*2 || g.ehi != gi*2+2 {
			t.Errorf("group %d range = [%d,%d), want [%d,%d)", gi, g.elo, g.ehi, gi*2, gi*2+2)
		}
		if g.words[0] != 0 || g.words[1] != 1 {
			t.Errorf("group %d words = %v, want [0 1]", gi, g.words)
		}
	}
}

func TestPlanStreamStrideTwoWastesHalf(t *testing.T) {
	m := addrmap.MustNew(addrmap.CLI, rdram.DefaultGeometry(), 4)
	groups := plan(m, stream.Stream{Base: 0, Stride: 2, Length: 8, Mode: stream.Read})
	if len(groups) != 8 {
		t.Fatalf("groups = %d, want 8 (one element per packet)", len(groups))
	}
	for gi, g := range groups {
		if g.n() != 1 || g.words[0] != 0 {
			t.Errorf("group %d = %+v, want single element at word 0", gi, g)
		}
	}
}

func TestPlanStreamOddBaseSplitsPackets(t *testing.T) {
	m := addrmap.MustNew(addrmap.CLI, rdram.DefaultGeometry(), 4)
	groups := plan(m, stream.Stream{Base: 1, Stride: 1, Length: 4, Mode: stream.Read})
	// Elements at 1,2,3,4: packets (0,1),(2,3),(4,5) -> 3 groups of 1,2,1.
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if groups[0].n() != 1 || groups[1].n() != 2 || groups[2].n() != 1 {
		t.Errorf("group sizes = %d,%d,%d; want 1,2,1", groups[0].n(), groups[1].n(), groups[2].n())
	}
	if groups[0].words[0] != 1 {
		t.Errorf("first element word = %d, want 1", groups[0].words[0])
	}
}

// TestPlanStreamRecyclesPlanner exercises the scratch-reuse path: a
// planner reset after planning a longer stream must yield the same groups
// as a fresh one, each with its packet's location and a one-group
// lookahead that ends with the stream.
func TestPlanStreamRecyclesPlanner(t *testing.T) {
	m := addrmap.MustNew(addrmap.CLI, rdram.DefaultGeometry(), 4)
	var p planner
	p.reset(stream.Stream{Base: 0, Stride: 1, Length: 64, Mode: stream.Read}, &m)
	p.advance()
	short := stream.Stream{Base: 1, Stride: 1, Length: 4, Mode: stream.Read}
	p.reset(short, &m)
	var groups []group
	for p.more() {
		if next := p.lookahead(); (next == nil) != (len(groups) == 2) {
			t.Errorf("group %d: lookahead %+v", len(groups), next)
		}
		if want := m.Map(addrmap.PacketAddr(short.Addr(p.cur.elo))); p.cur.loc != want {
			t.Errorf("group %d at %+v, want %+v", len(groups), p.cur.loc, want)
		}
		groups = append(groups, p.cur)
		p.advance()
	}
	if len(groups) != 3 || groups[0].n() != 1 || groups[1].n() != 2 || groups[2].n() != 1 {
		t.Fatalf("recycled plan = %+v, want sizes 1,2,1", groups)
	}
	if groups[1].words[0] != 0 || groups[1].words[1] != 1 {
		t.Errorf("recycled middle group words = %v, want [0 1]", groups[1].words)
	}
}

func TestSMCFunctionalAllKernels(t *testing.T) {
	for _, f := range stream.Benchmarks {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, pol := range []Policy{RoundRobin, BankAware} {
				cfg := Config{Scheme: scheme, LineWords: 4, FIFODepth: 16, Policy: pol}
				res, dev, k, shadow := runSMC(t, f.Name, 128, 1, cfg, stream.Staggered)
				if res.PercentPeak <= 0 || res.PercentPeak > 100 {
					t.Errorf("%s/%v/%v: PercentPeak = %.2f out of range", f.Name, scheme, pol, res.PercentPeak)
				}
				verifyFunctional(t, dev, scheme, 4, k, shadow)
			}
		}
	}
}

func TestSMCLongVectorsNearPeak(t *testing.T) {
	// The paper: "computations on streams of a thousand or more elements
	// utilize nearly all of the available memory bandwidth"; copy with
	// 1024 elements and deep FIFOs exceeds 98% of peak.
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		cfg := Config{Scheme: scheme, LineWords: 4, FIFODepth: 128}
		res, _, _, _ := runSMC(t, "copy", 1024, 1, cfg, stream.Staggered)
		if res.PercentPeak < 90 {
			t.Errorf("%v: copy 1024 deep-FIFO = %.2f%%, want > 90%%", scheme, res.PercentPeak)
		}
	}
}

func TestSMCBeatsNaturalOrderEverywhere(t *testing.T) {
	// "An SMC configured with appropriate FIFO depths can always exploit
	// available memory bandwidth better than natural-order cacheline
	// accesses" — check unit-stride kernels with deep FIFOs.
	for _, f := range stream.Benchmarks {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			cfg := Config{Scheme: scheme, LineWords: 4, FIFODepth: 128}
			res, _, _, _ := runSMC(t, f.Name, 1024, 1, cfg, stream.Staggered)
			if res.PercentPeak < 80 {
				t.Errorf("%s/%v: SMC = %.1f%%, expected well above natural-order (<70%%)", f.Name, scheme, res.PercentPeak)
			}
		}
	}
}

func TestDeeperFIFOsHelpLongVectors(t *testing.T) {
	// Figure 7 left-to-right: performance rises with FIFO depth. The PI
	// 1024-element curves flatten (and may dip slightly) near the top —
	// the paper's §6 notes the simple MSU falls short of the PI limit for
	// long vectors because of page-crossing overheads — so the assertion
	// is: clear improvement from 8 to 32, and no collapse from 32 to 128.
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		p := map[int]float64{}
		for _, depth := range []int{8, 32, 128} {
			cfg := Config{Scheme: scheme, LineWords: 4, FIFODepth: depth}
			res, _, _, _ := runSMC(t, "vaxpy", 1024, 1, cfg, stream.Staggered)
			p[depth] = res.PercentPeak
		}
		if p[32] <= p[8] {
			t.Errorf("%v: depth 32 (%.1f%%) not above depth 8 (%.1f%%)", scheme, p[32], p[8])
		}
		if p[128] < p[32]-3 {
			t.Errorf("%v: depth 128 (%.1f%%) collapsed below depth 32 (%.1f%%)", scheme, p[128], p[32])
		}
		if p[128] < p[8]+5 {
			t.Errorf("%v: depth 128 (%.1f%%) shows no gain over depth 8 (%.1f%%)", scheme, p[128], p[8])
		}
	}
}

func TestShortVectorsPayStartup(t *testing.T) {
	// The startup-delay bound: with 128-element vectors and very deep
	// FIFOs, the one-time prefetch delay costs more of the total time than
	// with 1024-element vectors.
	cfg := Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 128}
	short, _, _, _ := runSMC(t, "vaxpy", 128, 1, cfg, stream.Staggered)
	long, _, _, _ := runSMC(t, "vaxpy", 1024, 1, cfg, stream.Staggered)
	if short.PercentPeak >= long.PercentPeak {
		t.Errorf("short vectors %.2f%% should trail long vectors %.2f%%", short.PercentPeak, long.PercentPeak)
	}
}

func TestAlignmentMattersMostForShallowPIFIFOs(t *testing.T) {
	// The paper (§6): "Vector alignment has little impact on effective
	// bandwidth for SMC systems with CLI memory organizations ... A larger
	// performance difference arises between the maximum and minimum
	// bank-conflict simulations for SMC systems with PI memory
	// organizations and FIFO depths of 32 elements or fewer."
	shallow := Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 16}
	al, _, _, _ := runSMC(t, "vaxpy", 1024, 1, shallow, stream.Aligned)
	st, _, _, _ := runSMC(t, "vaxpy", 1024, 1, shallow, stream.Staggered)
	if st.PercentPeak-al.PercentPeak < 10 {
		t.Errorf("PI depth 16: aligned %.1f%% vs staggered %.1f%%; expected a large gap", al.PercentPeak, st.PercentPeak)
	}
	// Deep FIFOs close the gap on both organizations ("with deep FIFOs
	// (64-128 elements) ... the SMC can deliver good performance even for
	// a sub-optimal data placement").
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		deep := Config{Scheme: scheme, LineWords: 4, FIFODepth: 128}
		al, _, _, _ := runSMC(t, "vaxpy", 1024, 1, deep, stream.Aligned)
		st, _, _, _ := runSMC(t, "vaxpy", 1024, 1, deep, stream.Staggered)
		if diff := st.PercentPeak - al.PercentPeak; diff > 6 || diff < -6 {
			t.Errorf("%v depth 128: aligned %.1f%% vs staggered %.1f%%; expected near-identical", scheme, al.PercentPeak, st.PercentPeak)
		}
	}
}

func TestBankAwareHelpsConflictingCLILayouts(t *testing.T) {
	// The bank-aware extension targets exactly the bank-conflict stalls a
	// conflicting (aligned) layout provokes on closed-page CLI systems.
	rr := Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 32, Policy: RoundRobin}
	ba := rr
	ba.Policy = BankAware
	rrRes, _, _, _ := runSMC(t, "vaxpy", 1024, 1, rr, stream.Aligned)
	baRes, _, _, _ := runSMC(t, "vaxpy", 1024, 1, ba, stream.Aligned)
	if baRes.PercentPeak <= rrRes.PercentPeak {
		t.Errorf("CLI aligned: bank-aware %.2f%% should beat round-robin %.2f%%", baRes.PercentPeak, rrRes.PercentPeak)
	}
	// On favourable layouts it must not be a disaster (small losses are
	// expected: dodging one busy bank can cost an extra bus turnaround).
	rrSt, _, _, _ := runSMC(t, "vaxpy", 1024, 1, rr, stream.Staggered)
	baSt, _, _, _ := runSMC(t, "vaxpy", 1024, 1, ba, stream.Staggered)
	if baSt.PercentPeak < rrSt.PercentPeak-8 {
		t.Errorf("CLI staggered: bank-aware %.2f%% collapsed versus round-robin %.2f%%", baSt.PercentPeak, rrSt.PercentPeak)
	}
}

func TestNonUnitStrideAttainable(t *testing.T) {
	// Non-unit strides can use at most one word of every two-word packet:
	// PercentPeak tops out near 50 while PercentAttainable rescales to
	// ~100 (Figure 9's y-axis).
	cfg := Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 128}
	res, dev, k, shadow := runSMC(t, "vaxpy", 1024, 4, cfg, stream.Staggered)
	if res.PercentPeak > 51 {
		t.Errorf("stride-4 PercentPeak = %.2f, cannot exceed 50%%", res.PercentPeak)
	}
	if res.PercentAttainable < res.PercentPeak*1.9 {
		t.Errorf("PercentAttainable = %.2f, want ~2x PercentPeak %.2f", res.PercentAttainable, res.PercentPeak)
	}
	verifyFunctional(t, dev, addrmap.PI, 4, k, shadow)
}

func TestSpeculativeActivateHelpsPI(t *testing.T) {
	// The §6 extension hides page-crossing precharge/activate latency on
	// open-page systems for long streams.
	base := Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 32}
	spec := base
	spec.SpeculateActivate = true
	b, _, _, _ := runSMC(t, "daxpy", 4096, 1, base, stream.Staggered)
	sp, dev, k, shadow := runSMC(t, "daxpy", 4096, 1, spec, stream.Staggered)
	if sp.PercentPeak < b.PercentPeak {
		t.Errorf("speculative activate %.3f%% worse than base %.3f%%", sp.PercentPeak, b.PercentPeak)
	}
	verifyFunctional(t, dev, addrmap.PI, 4, k, shadow)
}

func TestSMCOddLengthAndOffsetStreams(t *testing.T) {
	// Partial packets at stream edges (hydro's zx+10/zx+11 views) must be
	// merged, not clobbered.
	cfg := Config{Scheme: addrmap.PI, LineWords: 4, FIFODepth: 16}
	res, dev, k, shadow := runSMC(t, "hydro", 101, 1, cfg, stream.Staggered)
	if res.PercentPeak <= 0 {
		t.Error("no progress")
	}
	verifyFunctional(t, dev, addrmap.PI, 4, k, shadow)
}

func TestSMCConfigValidation(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	k := stream.Copy(0, 1<<12, 16, 1)
	if _, err := Run(dev, k, Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 1}); err == nil {
		t.Error("expected error for FIFODepth < packet")
	}
	if _, err := Run(dev, k, Config{Scheme: addrmap.CLI, LineWords: 5, FIFODepth: 8}); err == nil {
		t.Error("expected error for odd LineWords")
	}
	bad := stream.Copy(0, 1<<12, 16, 1)
	bad.Compute = nil
	if _, err := Run(dev, bad, Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 8}); err == nil {
		t.Error("expected error for invalid kernel")
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || BankAware.String() != "bank-aware" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should render")
	}
}

func TestTransferAccountingUnitStride(t *testing.T) {
	cfg := Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 32}
	res, _, _, _ := runSMC(t, "copy", 1024, 1, cfg, stream.Staggered)
	if res.UsefulWords != 2048 || res.TransferredWords != 2048 {
		t.Errorf("useful/transferred = %d/%d, want 2048/2048 (dense packets)", res.UsefulWords, res.TransferredWords)
	}
	if res.PercentAttainable != res.PercentPeak {
		t.Errorf("unit stride: attainable %.2f should equal peak %.2f", res.PercentAttainable, res.PercentPeak)
	}
}

func TestCPUStallAccounting(t *testing.T) {
	cfg := Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 8}
	res, _, _, _ := runSMC(t, "copy", 128, 1, cfg, stream.Staggered)
	if res.CPUStallCycles <= 0 {
		t.Error("expected some CPU stall (startup at least)")
	}
	if res.CPUStallCycles >= res.Cycles {
		t.Errorf("stall %d exceeds total %d", res.CPUStallCycles, res.Cycles)
	}
}

// TestParsePolicy pins -policy's spellings: each Policy's String form
// parses back to it, every alias is accepted in any case, and anything
// else is an error naming the input.
func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{RoundRobin, BankAware, HitFirst} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"roundrobin", RoundRobin},
		{"round-robin", RoundRobin},
		{"rr", RoundRobin},
		{"bankaware", BankAware},
		{"bank-aware", BankAware},
		{"ba", BankAware},
		{"hitfirst", HitFirst},
		{"hit-first", HitFirst},
		{"hf", HitFirst},
		{"Hit-First", HitFirst},
	} {
		for _, in := range []string{tc.in, strings.ToUpper(tc.in), strings.ToLower(tc.in)} {
			if got, err := ParsePolicy(in); err != nil || got != tc.want {
				t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, tc.want)
			}
		}
	}
	for _, in := range []string{"bogus", "", "round robin", "fifo"} {
		_, err := ParsePolicy(in)
		if want := `unknown policy "` + in + `"`; err == nil || err.Error() != want {
			t.Errorf("ParsePolicy(%q) error = %v, want %q", in, err, want)
		}
	}
}
