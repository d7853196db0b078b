package sim

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

func kvProgram(t *testing.T) *tracegen.Program {
	t.Helper()
	p, err := tracegen.ParseProgram("llm-kvcache:n=4096,ctxrows=16", 7)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTraceScenarioRuns(t *testing.T) {
	sc := Scenario{
		Workload: &tracegen.Spec{Program: kvProgram(t)},
		Scheme:   addrmap.PI, Mode: SMC, FIFODepth: 32,
	}
	out, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Error("trace run not verified")
	}
	if out.Cycles <= 0 || out.UsefulWords != 4096 {
		t.Errorf("outcome = %+v", out.Result)
	}
	// Identical scenario, identical outcome — trace runs are pure.
	again, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(out)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Error("two runs of the same trace scenario diverge")
	}
}

// A program scenario and a scenario carrying the program's materialized
// accesses must produce identical outcomes — the service's POST /v1/trace
// path relies on it.
func TestTraceProgramMatchesMaterialized(t *testing.T) {
	prog := kvProgram(t)
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{Scheme: addrmap.PI, Mode: SMC, FIFODepth: 32}
	byProg := base
	byProg.Workload = &tracegen.Spec{Program: prog}
	byAccs := base
	byAccs.Workload = &tracegen.Spec{Accesses: accs}
	o1, err := Run(byProg)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Run(byAccs)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(o1)
	b, _ := json.Marshal(o2)
	if string(a) != string(b) {
		t.Errorf("program and materialized outcomes diverge:\n  %s\n  %s", a, b)
	}
}

func TestTraceControllersDiffer(t *testing.T) {
	// The llm-kvcache trace is the headline: SMC reordering must beat
	// natural order under PI, visibly.
	spec := &tracegen.Spec{Program: kvProgram(t)}
	nat, err := Run(Scenario{Workload: spec, Scheme: addrmap.PI, Mode: NaturalOrder})
	if err != nil {
		t.Fatal(err)
	}
	smc, err := Run(Scenario{Workload: spec, Scheme: addrmap.PI, Mode: SMC, FIFODepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if smc.PercentPeak <= nat.PercentPeak {
		t.Errorf("SMC %.1f%% does not beat natural %.1f%% on the KV-cache trace", smc.PercentPeak, nat.PercentPeak)
	}
}

func TestTraceScenarioValidate(t *testing.T) {
	spec := &tracegen.Spec{Program: kvProgram(t)}
	mutex := Scenario{KernelName: "daxpy", N: 64, Workload: spec, Mode: SMC}
	if err := mutex.Validate(); !errors.Is(err, ErrTraceScenario) {
		t.Errorf("kernel+workload Validate = %v, want ErrTraceScenario", err)
	}
	badSpec := Scenario{Workload: &tracegen.Spec{}, Mode: SMC}
	if err := badSpec.Validate(); !errors.Is(err, ErrTraceScenario) {
		t.Errorf("empty spec Validate = %v, want ErrTraceScenario", err)
	}
	conv := Scenario{Workload: spec, Controller: "conventional"}
	if err := conv.Validate(); !errors.Is(err, ErrTraceController) {
		t.Errorf("conventional Validate = %v, want ErrTraceController", err)
	}
	if _, err := Run(mutex); err == nil {
		t.Error("Run accepted a kernel+workload scenario")
	}
}

// Canonicalization collapses a program and its expansion to the same
// digest-only spec and scrubs every kernel-only field, so the result
// cache and the fabric's sharding treat them as one scenario.
func TestTraceCanonicalCollapses(t *testing.T) {
	prog := kvProgram(t)
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{Scheme: addrmap.PI, Mode: SMC, FIFODepth: 32}
	byProg := base
	byProg.Workload = &tracegen.Spec{Program: prog}
	byProg.Seed = 99 // kernel-only; must not split the cache key
	byAccs := base
	byAccs.Workload = &tracegen.Spec{Accesses: accs}
	c1, err := byProg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := byAccs.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("canonical forms differ:\n  %+v\n  %+v", c1, c2)
	}
	if c1.Workload == nil || c1.Workload.Digest == "" || c1.Workload.Program != nil || c1.Workload.Accesses != nil {
		t.Errorf("canonical workload not digest-only: %+v", c1.Workload)
	}
	if c1.KernelName != "" || c1.N != 0 || c1.Seed != 0 {
		t.Errorf("canonical trace scenario keeps kernel fields: %+v", c1)
	}
	// A different trace keeps a different key.
	other := base
	otherProg, err := tracegen.ParseProgram("strided:n=4096", 7)
	if err != nil {
		t.Fatal(err)
	}
	other.Workload = &tracegen.Spec{Program: otherProg}
	c3, err := other.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c3.Workload.Digest == c1.Workload.Digest {
		t.Error("different traces canonicalized to the same digest")
	}
}

func TestTraceLabel(t *testing.T) {
	sc := Scenario{Workload: &tracegen.Spec{Program: kvProgram(t)}, Mode: SMC}
	if got := sc.Label(); got == "" || got == sc.Mode.String() {
		t.Errorf("label = %q", got)
	}
	var buf []workload.TraceAccess
	buf = append(buf, workload.TraceAccess{Addr: 0})
	anon := Scenario{Workload: &tracegen.Spec{Accesses: buf}, Mode: SMC}
	if got := anon.Label(); got == "" {
		t.Error("anonymous trace scenario has no label")
	}
}

// A program expands into the scratch's trace buffer, which keeps its
// storage for the next run only up to tracegen.MaxPooledAccesses accesses.
func TestScratchTraceBound(t *testing.T) {
	spec := func(n int) *tracegen.Spec {
		return &tracegen.Spec{Program: &tracegen.Program{Seed: 3, Phases: []tracegen.Phase{
			{Pattern: tracegen.PatternStrided, Accesses: n},
		}}}
	}
	var scr scratch
	small, err := scr.materialize(spec(1000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec(1000).Program.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(small, want) {
		t.Fatal("materialize differs from Generate")
	}
	kept := cap(scr.trace)
	if kept < 1000 {
		t.Fatalf("scratch kept %d accesses of storage, want the 1000-access buffer", kept)
	}
	big, err := scr.materialize(spec(tracegen.MaxPooledAccesses + 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != tracegen.MaxPooledAccesses+1 {
		t.Fatalf("%d accesses, want %d", len(big), tracegen.MaxPooledAccesses+1)
	}
	if cap(scr.trace) != kept {
		t.Errorf("scratch kept %d accesses of storage after a %d-access program, want its earlier %d", cap(scr.trace), len(big), kept)
	}
	// An explicit list is replayed in place.
	list := []workload.TraceAccess{{Addr: 8}, {Addr: 64, Write: true}}
	got, err := scr.materialize(&tracegen.Spec{Accesses: list})
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &list[0] {
		t.Error("an explicit access list was copied")
	}
}

// One worker runs a program under both schemes and both controllers, as
// the llm-kvcache experiment and a sweep do: the later runs replay the
// first run's expansion, and every outcome is byte-identical to the
// same scenario run over the program's access list, which expands
// nothing.
func TestRememberedProgramOutcomes(t *testing.T) {
	prog := kvProgram(t)
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var byProg, byAccs []Scenario
	for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		for _, c := range []string{"natural-order", "smc"} {
			sc := Scenario{Scheme: s, Controller: c, FIFODepth: 32}
			p := *prog // an equal program, not the same one
			sc.Workload = &tracegen.Spec{Program: &p}
			byProg = append(byProg, sc)
			sc.Workload = &tracegen.Spec{Accesses: accs}
			byAccs = append(byAccs, sc)
		}
	}
	got, err := RunAll(byProg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunAll(byAccs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if string(a) != string(b) {
			t.Errorf("%s: program outcome %s, access-list outcome %s", byProg[i].Label(), a, b)
		}
	}
}

// The scratch remembers the program its buffer holds. An equal program
// gets the buffer back unexpanded; a changed seed or phase, or the
// remembered program's own phases changed in place, expands again.
func TestScratchRemembersProgram(t *testing.T) {
	newProg := func() *tracegen.Program {
		return &tracegen.Program{Name: "kv", Seed: 3, Phases: []tracegen.Phase{
			{Pattern: tracegen.PatternLLMKV, Accesses: 2000, ContextRows: 4},
		}}
	}
	var scr scratch
	// expand materializes p after marking the buffer, so that a result
	// still carrying the mark was not expanded.
	mark := workload.TraceAccess{Addr: -1}
	expand := func(p *tracegen.Program) []workload.TraceAccess {
		t.Helper()
		if len(scr.trace) > 0 {
			scr.trace[0] = mark
		}
		got, err := scr.materialize(&tracegen.Spec{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	check := func(what string, p *tracegen.Program, wantExpanded bool) {
		t.Helper()
		got := expand(p)
		if expanded := got[0] != mark; expanded != wantExpanded {
			t.Fatalf("%s: expanded %v, want %v", what, expanded, wantExpanded)
		}
		if !wantExpanded {
			return
		}
		want, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: materialize differs from Generate", what)
		}
	}

	p := newProg()
	check("first run", p, true)
	check("equal program", newProg(), false)
	check("same program", p, false)

	seed := newProg()
	seed.Seed++
	check("changed seed", seed, true)
	check("first program again", newProg(), true)

	phase := newProg()
	phase.Phases[0].ContextRows = 8
	check("changed phase", phase, true)

	// The scratch holds a copy of the phases: changing the remembered
	// program's slice in place is a different program.
	phase.Phases[0].ContextRows = 16
	check("phases changed in place", phase, true)
	check("name changed", &tracegen.Program{Name: "other", Seed: phase.Seed, Phases: phase.Phases}, true)
}
