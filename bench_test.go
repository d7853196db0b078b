// Benchmarks that regenerate every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFigure*
// rebuilds its artifact once per iteration; the reported ns/op is the cost
// of the full reproduction, and the b.Log output carries the headline
// values so a bench run doubles as a results report (-v to see them).
package rdramstream_test

import (
	"testing"

	"rdramstream"
	"rdramstream/internal/addrmap"
	"rdramstream/internal/analytic"
	"rdramstream/internal/experiments"
	"rdramstream/internal/steady"
)

// BenchmarkFigure1DRAMComparison regenerates the Figure 1 DRAM table.
func BenchmarkFigure1DRAMComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure1(); len(tab.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure2TimingTable regenerates the Figure 2 parameter table.
func BenchmarkFigure2TimingTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure2(); len(tab.Rows) != 11 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure5Timeline renders the CLI protocol timeline.
func BenchmarkFigure5Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Timeline renders the PI protocol timeline.
func BenchmarkFigure6Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7PanelVaxpyPI1024 regenerates one representative Figure 7
// panel (five FIFO depths, two placements, plus the analytic limits).
func BenchmarkFigure7PanelVaxpyPI1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := experiments.Figure7Panel("vaxpy", addrmap.PI, 1024)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("vaxpy/PI/1024 staggered by depth: %v", p.Staggered)
		}
	}
}

// BenchmarkFigure7AllPanels regenerates the full sixteen-panel grid.
func BenchmarkFigure7AllPanels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 16 {
			b.Fatalf("panels = %d", len(panels))
		}
	}
}

// BenchmarkFigure7Serial regenerates the sixteen-panel grid on one worker
// — the baseline BenchmarkFigure7Parallel4's speedup is read against.
func BenchmarkFigure7Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7Parallel(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Parallel4 regenerates the grid on four workers. The
// speedup over BenchmarkFigure7Serial tracks the available cores (on a
// single-core machine it is honestly ~1x).
func BenchmarkFigure7Parallel4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7Parallel(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial runs the determinism-test scenario sweep serially.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel4 runs the same sweep on four workers.
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

func benchSweep(b *testing.B, workers int) {
	var scs []rdramstream.Scenario
	for _, kn := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, scheme := range []rdramstream.Interleave{rdramstream.CLI, rdramstream.PI} {
			for _, depth := range []int{8, 32, 128} {
				scs = append(scs, rdramstream.Scenario{
					KernelName: kn, N: 1024, Scheme: scheme, Mode: rdramstream.SMC,
					FIFODepth: depth, Placement: rdramstream.Staggered, SkipVerify: true,
				})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdramstream.SimulateAll(scs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8StridedFill regenerates the strided cacheline-fill table.
func BenchmarkFigure8StridedFill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Figure8(); len(tab.Rows) != 32 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure9NonUnitStride regenerates the strided vaxpy comparison.
func BenchmarkFigure9NonUnitStride(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("stride 4 row: %v", tab.Rows[0])
		}
	}
}

// BenchmarkHeadlineNumbers regenerates the quoted-number comparison table.
func BenchmarkHeadlineNumbers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeadlineNumbers(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerAblation runs the MSU-policy ablation grid.
func BenchmarkSchedulerAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SchedulerAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticBounds evaluates the full set of §5 equations across a
// parameter sweep — the analytic models must stay trivially cheap.
func BenchmarkAnalyticBounds(b *testing.B) {
	p := analytic.DefaultParams()
	for i := 0; i < b.N; i++ {
		var acc float64
		for s := 1; s <= 8; s++ {
			for _, f := range []int{8, 32, 128} {
				acc += p.CacheMultiCLI(s, 1024) + p.CacheMultiPI(s, 1024)
				acc += p.SMCCombinedBound(true, s, 1, f, 1024)
				acc += p.SMCCombinedBound(false, s, 1, f, 1024)
			}
		}
		if acc <= 0 {
			b.Fatal("bounds vanished")
		}
	}
}

// BenchmarkChannelScaling runs the multi-device channel extension table.
func BenchmarkChannelScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChannelScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritebackAblation runs the §6 writeback-cost table.
func BenchmarkWritebackAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WritebackAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheConflictAblation runs the §6 cache-conflict table.
func BenchmarkCacheConflictAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CacheConflictAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshAblation runs the refresh-overhead table.
func BenchmarkRefreshAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RefreshAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- simulator micro-benchmarks ---

// BenchmarkRun measures one full simulation per kernel × controller at
// n=1024, plus long-stream (64K-element) variants at the scale a
// downstream sweep would run: timing-only and verified per controller
// under PI, verified under CLI, and the conventional controller
// timing-only and verified, where a verified run also seeds the device,
// replays the golden image its write lines carry and checks its final
// image. The long variants are the hot-path numbers pinned in
// BENCH_core_speed.json (docs/PERFORMANCE.md).
func BenchmarkRun(b *testing.B) {
	controllers := []struct {
		name string
		mode rdramstream.Controller
	}{
		{"smc", rdramstream.SMC},
		{"natural", rdramstream.NaturalOrder},
	}
	for _, kn := range []string{"copy", "daxpy", "hydro", "vaxpy"} {
		for _, c := range controllers {
			sc := rdramstream.Scenario{
				KernelName: kn, N: 1024, Scheme: rdramstream.PI, Mode: c.mode,
				FIFODepth: 128, Placement: rdramstream.Staggered, SkipVerify: true,
			}
			b.Run(kn+"/"+c.name, func(b *testing.B) { benchScenario(b, sc) })
		}
	}
	for _, c := range controllers {
		sc := rdramstream.Scenario{
			KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI, Mode: c.mode,
			FIFODepth: 128, Placement: rdramstream.Staggered, SkipVerify: true,
		}
		b.Run("long/daxpy/"+c.name, func(b *testing.B) { benchScenario(b, sc) })
		sc.SkipVerify = false
		b.Run("long/daxpy/"+c.name+"/verified", func(b *testing.B) { benchScenario(b, sc) })
		sc.Scheme = rdramstream.CLI
		b.Run("long/daxpy/"+c.name+"/verified/cli", func(b *testing.B) { benchScenario(b, sc) })
	}
	conventional := rdramstream.Scenario{
		KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI, Controller: "conventional",
		Placement: rdramstream.Staggered, SkipVerify: true,
	}
	b.Run("long/daxpy/conventional", func(b *testing.B) { benchScenario(b, conventional) })
	conventional.SkipVerify = false
	b.Run("long/daxpy/conventional/verified", func(b *testing.B) { benchScenario(b, conventional) })
}

// BenchmarkTraceRun measures one reordered replay of a generated
// 65,536-access trace through Simulate, program expansion included: the
// row-granular llm-kvcache traffic (32 context rows, FIFO depth 64)
// under PI and CLI, and a chase that mostly misses its rows (FIFO depth
// 32) under PI.
func BenchmarkTraceRun(b *testing.B) {
	trace := func(pattern string, ctxRows int) *rdramstream.TraceSpec {
		return &rdramstream.TraceSpec{Program: &rdramstream.TraceProgram{
			Name: pattern, Seed: 7, Phases: []rdramstream.TracePhase{
				{Pattern: pattern, Accesses: 65536, ContextRows: ctxRows},
			},
		}}
	}
	for _, c := range []struct {
		name string
		sc   rdramstream.Scenario
	}{
		{"llm-kvcache/pi", rdramstream.Scenario{Workload: trace("llm-kvcache", 32), Scheme: rdramstream.PI, Mode: rdramstream.SMC, FIFODepth: 64}},
		{"llm-kvcache/cli", rdramstream.Scenario{Workload: trace("llm-kvcache", 32), Scheme: rdramstream.CLI, Mode: rdramstream.SMC, FIFODepth: 64}},
		{"chase/pi", rdramstream.Scenario{Workload: trace("chase", 0), Scheme: rdramstream.PI, Mode: rdramstream.SMC, FIFODepth: 32}},
	} {
		b.Run(c.name, func(b *testing.B) { benchScenario(b, c.sc) })
	}
}

// benchScenario times Simulate(sc) by the steady-state protocol of the
// pinned benchmarks (internal/steady).
func benchScenario(b *testing.B, sc rdramstream.Scenario) {
	steady.Loop(b, func() {
		if _, err := rdramstream.Simulate(sc); err != nil {
			b.Fatal(err)
		}
	})
}

// --- telemetry overhead benchmarks ---

// telemetryScenarios are the scenarios the telemetry overhead is quoted
// for, all staggered and timing-only: the canonical daxpy/SMC/PI/fifo-128
// run, an SMC copy under CLI and a natural-order daxpy under PI.
var telemetryScenarios = []struct {
	name string
	sc   rdramstream.Scenario
}{
	{"DaxpySMCPI", rdramstream.Scenario{
		KernelName: "daxpy", N: 1024, Scheme: rdramstream.PI,
		Mode: rdramstream.SMC, FIFODepth: 128,
		Placement: rdramstream.Staggered, SkipVerify: true,
	}},
	{"CopySMCCLI", rdramstream.Scenario{
		KernelName: "copy", N: 1024, Scheme: rdramstream.CLI,
		Mode: rdramstream.SMC, FIFODepth: 128,
		Placement: rdramstream.Staggered, SkipVerify: true,
	}},
	{"DaxpyNaturalPI", rdramstream.Scenario{
		KernelName: "daxpy", N: 1024, Scheme: rdramstream.PI,
		Mode:      rdramstream.NaturalOrder,
		Placement: rdramstream.Staggered, SkipVerify: true,
	}},
}

// benchTelemetry times every telemetry scenario as a sub-benchmark,
// attaching the collector newTel builds (nil: none) to each run.
func benchTelemetry(b *testing.B, newTel func() *rdramstream.Telemetry) {
	for _, tc := range telemetryScenarios {
		b.Run(tc.name, func(b *testing.B) {
			steady.Loop(b, func() {
				sc := tc.sc
				if newTel != nil {
					sc.Telemetry = newTel()
				}
				if _, err := rdramstream.Simulate(sc); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkTelemetryOff runs with no collector attached — the
// nil-guarded path every uninstrumented simulation takes. Compare against
// the pre-telemetry baseline to measure the cost of the guards themselves.
func BenchmarkTelemetryOff(b *testing.B) { benchTelemetry(b, nil) }

// BenchmarkTelemetryOn attaches a counters-only collector (series,
// histograms, stall attribution; no event capture).
func BenchmarkTelemetryOn(b *testing.B) {
	benchTelemetry(b, func() *rdramstream.Telemetry {
		return rdramstream.NewTelemetry(rdramstream.TelemetryOptions{Window: 256})
	})
}

// BenchmarkTelemetryCapture additionally captures the event stream that
// feeds the JSONL and Chrome-trace exports — the most expensive
// telemetry configuration.
func BenchmarkTelemetryCapture(b *testing.B) {
	benchTelemetry(b, func() *rdramstream.Telemetry {
		return rdramstream.NewTelemetry(rdramstream.TelemetryOptions{Window: 256, CaptureEvents: true})
	})
}

// BenchmarkPriorFPMSystem regenerates the §3 fast-page-mode system table.
func BenchmarkPriorFPMSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PriorSystem(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrispEfficiency regenerates the random-workload channel table.
func BenchmarkCrispEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrispEfficiency(); err != nil {
			b.Fatal(err)
		}
	}
}
