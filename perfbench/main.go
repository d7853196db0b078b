// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output against a reference, and
// prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload kernel-grid --seed 1 --seconds 30 --trace 0
//
// Workloads (inputs are generated from --seed; BENCHMARK.json records why
// each was chosen):
//
//   - kernel-grid: the paper's kernel × scheme × controller × length grid,
//     functionally verified, back to back through sim.RunAll on one worker.
//   - trace-mix: tracegen programs replayed through sim.RunAll under both
//     schemes, in trace order and through the reorder window.
//   - serve-rw: an in-process server on loopback; a reader client that only
//     hits the result cache beside a writer client that only misses it
//     (every seventh writer request posts an NDJSON trace that hits).
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced windows with windows that record a span around every
// layer call the workload makes, writes the spans to --span-dir, reconciles the
// layers' self times with the untraced time per operation, and runs a
// fixed suite of per-layer probes on inputs generated from the same seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rdramstream/internal/version"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload until d has passed. A non-nil tracer
	// records a span around every layer call.
	measure(d time.Duration, tr *tracer) runStats
	// pctPeakMean is the mean simulated PercentPeak of the distinct
	// scenarios the workload runs.
	pctPeakMean() float64
	close() error
}

var workloads = map[string]func(seed int64) (instance, error){
	"kernel-grid": func(seed int64) (instance, error) { return closeless(setupKernelGrid(seed)) },
	"trace-mix":   func(seed int64) (instance, error) { return closeless(setupTraceMix(seed)) },
	"serve-rw":    func(seed int64) (instance, error) { return setupServe(seed) },
}

func closeless(b *batch, err error) (instance, error) {
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *batch) close() error { return nil }

// runStats is what one measurement window produced.
type runStats struct {
	elapsed   time.Duration
	ops       int
	scenarios int64 // completed and correct
	// rate is scenarios_per_s: the grid's scenarios over the sum of their
	// costs for the batch workloads, completed requests over the window for
	// serve-rw.
	rate      float64
	attempted int64
	failed    int64
	errs      []string
	// opMS holds the latency of the workload's operation: the cost of each
	// scenario of the grid (its fastest run) for the batch workloads, every
	// reader cache hit for serve-rw.
	opMS []float64
	// Writer latencies of serve-rw, by request class, and the reader hits
	// sent while the server was handling a writer miss.
	missMS, traceMS, blockedMS []float64
}

func (st *runStats) fail(n int64, err error) {
	st.failed += n
	if len(st.errs) < 5 {
		st.errs = append(st.errs, err.Error())
	}
}

func (st *runStats) merge(o runStats) {
	st.ops += o.ops
	st.scenarios += o.scenarios
	st.attempted += o.attempted
	st.failed += o.failed
	st.errs = append(st.errs, o.errs...)
	st.opMS = append(st.opMS, o.opMS...)
	st.missMS = append(st.missMS, o.missMS...)
	st.traceMS = append(st.traceMS, o.traceMS...)
	st.blockedMS = append(st.blockedMS, o.blockedMS...)
}

// perOpUS is the mean time of one operation: the window divided by the
// scenarios for the batch workloads, the mean request latency for serve-rw
// (whose two clients overlap).
func (st *runStats) perOpUS() float64 {
	if n := len(st.missMS) + len(st.traceMS); n > 0 {
		sum := 0.0
		for _, xs := range [][]float64{st.opMS, st.missMS, st.traceMS} {
			for _, x := range xs {
				sum += x
			}
		}
		return sum * 1e3 / float64(n+len(st.opMS))
	}
	if st.scenarios == 0 {
		return 0
	}
	return float64(st.elapsed.Microseconds()) / float64(st.scenarios)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	spanDir  string
	// probeScale shrinks the per-layer probes' time budgets (1 = full).
	probeScale float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: kernel-grid, trace-mix or serve-rw")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.IntVar(&cfg.setups, "setups", 5, "set-ups per run; setup_s is their median")
	fs.StringVar(&cfg.spanDir, "span-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	fs.Float64Var(&cfg.probeScale, "probe-scale", 1, "scale of the per-layer probes' time budgets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || cfg.setups < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload kernel-grid|trace-mix|serve-rw, --seconds > 0, --setups >= 1, --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	// Two busy threads at most: one simulation worker plus, on serve-rw,
	// the HTTP side. Fixing it keeps runs comparable across hosts.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, report, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	report["provenance"] = provenance(cfg)
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func provenance(cfg config) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":     commit,
		"version":    version.Stamp(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"setups":     cfg.setups,
	}
}

// execute sets the workload up cfg.setups times, keeps the last instance,
// and measures it. It returns the result line and a report of the details
// behind it (sample counts, percentiles used, ledger, errors).
func execute(cfg config) (result, map[string]any, error) {
	setup := workloads[cfg.workload]
	var (
		inst     instance
		setupS   []float64
		setupErr error
	)
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, nil, err
			}
		}
		t0 := time.Now()
		inst, setupErr = setup(cfg.seed)
		setupS = append(setupS, time.Since(t0).Seconds())
		if setupErr != nil {
			return result{}, nil, fmt.Errorf("setup: %w", setupErr)
		}
	}
	defer inst.close()
	d := time.Duration(cfg.seconds * float64(time.Second))
	report := map[string]any{"setup_s": setupS}
	if cfg.trace {
		return executeTraced(cfg, inst, d, report)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	mem := startMemSampler(50 * time.Millisecond)
	st := inst.measure(d, nil)
	memMiB := mem.mean()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	report["cpu_s"] = cpu
	report["wall_s"] = st.elapsed.Seconds()
	report["peak_rss_mb"] = peakRSSMB()

	tailQ := tailQuantile(len(st.opMS), 0.99)
	report["ops"] = st.ops
	report["op_samples"] = len(st.opMS)
	report["window_rate"] = float64(st.scenarios) / st.elapsed.Seconds()
	report["op_tail_quantile"] = tailQ
	report["errors"] = st.errs
	serveReport(report, st)
	res := newResult(st)
	scen := float64(max(st.scenarios, 1))
	res.Metrics = map[string]metric{
		"setup_s":             {median(setupS), "s"},
		"scenarios_per_s":     {st.rate, "1/s"},
		"allocs_per_scenario": {float64(m1.Mallocs-m0.Mallocs) / scen, "count"},
		"pct_peak_mean":       {inst.pctPeakMean(), "%"},
		"go_mem_mb":           {memMiB, "MiB"},
		"op_p50_ms":           {quantile(st.opMS, 0.5), "ms"},
		"op_tail_ms":          {quantile(st.opMS, tailQ), "ms"},
	}
	return res, report, nil
}

func newResult(st runStats) result {
	return result{
		Correct:   st.failed == 0 && st.scenarios > 0,
		Attempted: st.attempted,
		Failed:    st.failed,
	}
}

// serveReport adds serve-rw's per-class latencies and sample counts.
func serveReport(report map[string]any, st runStats) {
	if len(st.missMS) == 0 {
		return
	}
	report["classes"] = classLatencies(st)
}

// classLatencies splits serve-rw's latencies by request class: each
// class's median and its highest percentile with at least ten samples
// beyond it, with the sample counts.
func classLatencies(st runStats) map[string]float64 {
	return map[string]float64{
		"hit_p50_ms":   quantile(st.opMS, 0.5),
		"hit_p99_ms":   quantile(st.opMS, tailQuantile(len(st.opMS), 0.99)),
		"hit_n":        float64(len(st.opMS)),
		"miss_p50_ms":  quantile(st.missMS, 0.5),
		"miss_p90_ms":  quantile(st.missMS, tailQuantile(len(st.missMS), 0.9)),
		"miss_n":       float64(len(st.missMS)),
		"trace_p50_ms": quantile(st.traceMS, 0.5),
		"trace_n":      float64(len(st.traceMS)),
	}
}

// tracedSlices is how many untraced and traced windows a traced run
// alternates, so that both halves see the same host conditions.
const tracedSlices = 10

// executeTraced measures half the time untraced and half traced, in
// alternating windows, then adds the ledger, the tracing overhead and the
// per-layer probes.
func executeTraced(cfg config, inst instance, d time.Duration, report map[string]any) (result, map[string]any, error) {
	var (
		plain, traced runStats
		m0, m1        runtime.MemStats
		gcCycles      uint32
		gcPauseNS     uint64
	)
	tr := newTracer()
	slice := d / (2 * tracedSlices)
	runtime.GC()
	for i := 0; i < tracedSlices; i++ {
		runtime.ReadMemStats(&m0)
		p := inst.measure(slice, nil)
		runtime.ReadMemStats(&m1)
		gcCycles += m1.NumGC - m0.NumGC
		gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
		plain.merge(p)
		plain.elapsed += p.elapsed
		t := inst.measure(slice, tr)
		traced.merge(t)
		traced.elapsed += t.elapsed
	}
	spans := tr.snapshot()
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	led, err := reconcile(spans, plain.perOpUS())
	if err != nil {
		return result{}, nil, err
	}
	report["ledger"] = led
	report["spans_file"] = path
	report["errors"] = append(plain.errs, traced.errs...)

	probes, err := runProbes(cfg.seed, cfg.probeScale)
	if err != nil {
		return result{}, nil, fmt.Errorf("per-layer probes: %w", err)
	}
	plain.merge(traced)
	res := newResult(plain)
	res.Metrics = make(map[string]metric, len(perLayer))
	vals := probes
	vals["runtime.gc_cycles"] = float64(gcCycles)
	vals["runtime.gc_pause_ms"] = float64(gcPauseNS) / 1e6
	vals["ledger.op_us"] = led.OpUS
	vals["ledger.layers_us"] = led.LayersUS
	vals["ledger.remainder_us"] = led.RemainderUS
	vals["ledger.remainder_share"] = led.RemainderUS / led.OpUS
	vals["trace.overhead_share"] = traced.perOpUS()/led.OpUS - 1
	vals["trace.spans"] = float64(len(spans))
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return result{}, nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, report, nil
}
