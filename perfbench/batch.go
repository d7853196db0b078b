package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

var (
	gridKernels = []string{"copy", "daxpy", "hydro", "vaxpy"}
	gridSchemes = []addrmap.Scheme{addrmap.CLI, addrmap.PI}
	gridCtrls   = []string{"natural-order", "smc", "conventional"}
	gridNs      = []int{1024, 16384}
)

// kernelGridInputs is the paper's evaluation grid: every kernel × scheme ×
// controller × length with functional verification on, plus a stride-4
// SMC row per kernel/scheme/length. The seed picks each scenario's data
// pattern and the order the grid runs in.
func kernelGridInputs(seed int64) []sim.Scenario {
	rng := rand.New(rand.NewSource(seed))
	var scs []sim.Scenario
	for _, k := range gridKernels {
		for _, s := range gridSchemes {
			for _, n := range gridNs {
				for _, c := range gridCtrls {
					scs = append(scs, sim.Scenario{KernelName: k, N: n, Scheme: s, Controller: c, Seed: rng.Int63()})
				}
				scs = append(scs, sim.Scenario{KernelName: k, N: n, Stride: 4, Scheme: s, Controller: "smc", Seed: rng.Int63()})
			}
		}
	}
	rng.Shuffle(len(scs), func(i, j int) { scs[i], scs[j] = scs[j], scs[i] })
	return scs
}

// traceAccesses is the length of every trace-mix program.
const traceAccesses = 12288

// tracePrograms are the trace-mix generator programs: the llm-kvcache
// pattern at three context lengths, a hot-row and a pointer-chase phase,
// and a strided phase that writes half its bursts. The seed drives every
// program's random draws.
func tracePrograms(seed int64) []tracegen.Program {
	rng := rand.New(rand.NewSource(seed ^ 0x7ace))
	phases := []tracegen.Phase{
		{Pattern: tracegen.PatternLLMKV, ContextRows: 4},
		{Pattern: tracegen.PatternLLMKV, ContextRows: 32},
		{Pattern: tracegen.PatternLLMKV, ContextRows: 256},
		{Pattern: tracegen.PatternHotRow},
		{Pattern: tracegen.PatternChase},
		{Pattern: tracegen.PatternStrided, WriteFraction: 0.5},
	}
	progs := make([]tracegen.Program, len(phases))
	for i, ph := range phases {
		ph.Accesses = traceAccesses
		progs[i] = tracegen.Program{Name: fmt.Sprintf("%s-%d", ph.Pattern, i), Seed: rng.Int63(), Phases: []tracegen.Phase{ph}}
	}
	return progs
}

// traceMixInputs replays every program under both schemes, in trace
// order (natural-order) and through the row-hit-first reorder window
// (smc).
func traceMixInputs(seed int64) []sim.Scenario {
	var scs []sim.Scenario
	for _, p := range tracePrograms(seed) {
		for _, s := range gridSchemes {
			for _, c := range []string{"natural-order", "smc"} {
				p := p
				scs = append(scs, sim.Scenario{Scheme: s, Controller: c, Workload: &tracegen.Spec{Program: &p}})
			}
		}
	}
	return scs
}

// batch is a workload that runs a fixed scenario list back to back
// through sim.RunAll on one worker, round after round.
type batch struct {
	scs  []sim.Scenario
	refs []sim.Outcome
	// check compares a round's outcome with the reference outcome.
	check func(out, ref sim.Outcome) error
	// traced runs one scenario with a span around each layer call.
	traced func(tr *tracer, sc sim.Scenario) (sim.Outcome, error)
}

func setupKernelGrid(seed int64) (*batch, error) {
	b := &batch{scs: kernelGridInputs(seed), check: checkKernel, traced: tracedKernel}
	return b, b.warm()
}

func setupTraceMix(seed int64) (*batch, error) {
	b := &batch{scs: traceMixInputs(seed), check: checkSameBytes, traced: tracedTrace}
	return b, b.warm()
}

// warm runs the first round, which every later round must reproduce.
func (b *batch) warm() error {
	refs, err := sim.RunAll(b.scs, 1)
	if err != nil {
		return fmt.Errorf("reference round: %w", err)
	}
	for i, o := range refs {
		if err := b.check(o, o); err != nil {
			return fmt.Errorf("reference round, %s: %w", b.scs[i].Label(), err)
		}
	}
	b.refs = refs
	return nil
}

func checkKernel(out, ref sim.Outcome) error {
	switch {
	case !out.Verified:
		return fmt.Errorf("outcome not verified")
	case out.PercentPeak > 100 || out.PercentPeak <= 0:
		return fmt.Errorf("PercentPeak %v outside (0, 100]", out.PercentPeak)
	case out != ref:
		return fmt.Errorf("outcome differs from the reference round")
	}
	return nil
}

func checkSameBytes(out, ref sim.Outcome) error {
	a, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("outcome bytes differ from the first round")
	}
	if out.PercentPeak > 100 || out.PercentPeak <= 0 {
		return fmt.Errorf("PercentPeak %v outside (0, 100]", out.PercentPeak)
	}
	return nil
}

func (b *batch) pctPeakMean() float64 {
	sum := 0.0
	for _, o := range b.refs {
		sum += o.PercentPeak
	}
	return sum / float64(len(b.refs))
}

// measure runs rounds until d has passed. A round passes every scenario
// through sim.RunAll on one worker, one call each so that each scenario is
// timed; a scenario is one operation. A scenario's cost is its fastest run
// in the window: its work is fixed, while a shared host slows every run by
// up to 2x for seconds to minutes at a time, so a scenario's median or a
// round's time tracks the host more than the simulator. With a tracer it
// runs the same rounds through measureTraced instead.
func (b *batch) measure(d time.Duration, tr *tracer) runStats {
	if tr != nil {
		return b.measureTraced(d, tr)
	}
	var st runStats
	times := make([][]float64, len(b.scs))
	start := time.Now()
	for st.ops == 0 || time.Since(start) < d {
		for i := range b.scs {
			t0 := time.Now()
			outs, err := sim.RunAll(b.scs[i:i+1], 1)
			took := ms(time.Since(t0))
			st.ops++
			st.attempted++
			if err == nil {
				err = b.check(outs[0], b.refs[i])
			}
			if err != nil {
				st.fail(1, fmt.Errorf("%s: %w", b.scs[i].Label(), err))
				continue
			}
			times[i] = append(times[i], took)
			st.scenarios++
		}
	}
	st.elapsed = time.Since(start)
	// opMS holds each scenario's cost, and a round costs their sum.
	roundMS := 0.0
	for _, ts := range times {
		if len(ts) == 0 {
			continue
		}
		c := slices.Min(ts)
		st.opMS = append(st.opMS, c)
		roundMS += c
	}
	if roundMS > 0 {
		st.rate = float64(len(st.opMS)) * 1e3 / roundMS
	}
	return st
}

// measureTraced runs the same rounds scenario by scenario, each one an
// operation whose layer calls are spans.
func (b *batch) measureTraced(d time.Duration, tr *tracer) runStats {
	var st runStats
	start := time.Now()
	for st.ops == 0 || time.Since(start) < d {
		for i, sc := range b.scs {
			out, err := b.traced(tr, sc)
			st.ops++
			st.attempted++
			if err == nil {
				err = b.check(out, b.refs[i])
			}
			if err != nil {
				st.fail(1, fmt.Errorf("%s: %w", sc.Label(), err))
				continue
			}
			st.scenarios++
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// tracedKernel is sim.Run for a kernel scenario, split into its two
// public calls.
func tracedKernel(tr *tracer, sc sim.Scenario) (sim.Outcome, error) {
	op := tr.begin(rootSpan, 0, 0)
	defer op.end()
	s := op.child("sim.BuildKernel")
	k, err := sim.BuildKernel(sc)
	s.end()
	if err != nil {
		return sim.Outcome{}, err
	}
	s = op.child("sim.RunKernel")
	out, err := sim.RunKernel(k, sc)
	s.end()
	return out, err
}

// tracedTrace is sim.Run for a trace scenario, split into trace expansion,
// device construction and the replay controller.
func tracedTrace(tr *tracer, sc sim.Scenario) (sim.Outcome, error) {
	op := tr.begin(rootSpan, 0, 0)
	defer op.end()
	s := op.child("tracegen.Spec.Materialize")
	accs, err := sc.Workload.Materialize()
	s.end()
	if err != nil {
		return sim.Outcome{}, err
	}
	s = op.child("rdram.NewDevice")
	dev := rdram.NewDevice(rdram.DefaultConfig())
	dev.SetTimingOnly(true)
	s.end()
	s = op.child("workload.ReplayTrace")
	res, err := workload.ReplayTrace(dev, workload.TraceOptions{
		Scheme: sc.Scheme, LineWords: 4, Reorder: sc.Controller == "smc", Window: 32,
	}, accs)
	s.end()
	return sim.Outcome{Result: res, Verified: true}, err
}
