package sim

import (
	"slices"

	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// runTrace executes a trace scenario: the Workload spec is materialized
// (generator programs expand here, deterministically, into the run's
// scratch buffer) and replayed through workload.ReplayTrace under the
// scenario's scheme, line size, and controller — "natural-order"
// replays in trace order, "smc" reorders row-hits-first over a
// FIFODepth-deep window. The device comes from newDevice, the setup
// RunKernel uses too, so trace rows slot into sweeps, caching, and the
// fabric with no special cases above this function.
func runTrace(sc Scenario) (Outcome, error) {
	if err := sc.Validate(); err != nil {
		return Outcome{}, err
	}
	dev, scr, err := newDevice(sc)
	if err != nil {
		return Outcome{}, err
	}
	defer scr.release(dev)
	accs, err := scr.materialize(sc.Workload)
	if err != nil {
		return Outcome{}, err
	}
	// A trace carries addresses, not data: the replay is timing-only by
	// construction, like a SkipVerify kernel run.
	dev.SetTimingOnly(true)
	name, err := sc.controllerName()
	if err != nil {
		return Outcome{}, err
	}
	res, err := workload.ReplayTrace(dev, workload.TraceOptions{
		Scheme:      sc.Scheme,
		LineWords:   sc.LineWords,
		Outstanding: sc.Workload.Outstanding,
		Reorder:     name == "smc",
		Window:      sc.FIFODepth,
		Telemetry:   sc.Telemetry,
	}, accs)
	if err != nil {
		return Outcome{}, err
	}
	// There is no golden image to check against — Verified reports that
	// the replay completed and issued every demanded access, which keeps
	// rdsim's exit code and the CI byte-compares free of trace special
	// cases.
	out := Outcome{Result: res, Verified: true}
	finalize(sc.Telemetry, dev, out)
	return out, nil
}

// materialize returns spec's access trace. A program expands into the
// scratch's trace buffer, reused from run to run up to
// tracegen.MaxPooledAccesses; an explicit access list is replayed where
// it is. The scratch remembers, as a copy, the program its buffer holds,
// so the next run of an equal program on this worker (the same scenario
// under another scheme or controller) replays the buffer as it is.
func (scr *scratch) materialize(spec *tracegen.Spec) ([]workload.TraceAccess, error) {
	p := spec.Program
	if p == nil {
		return spec.Materialize()
	}
	if scr.held && p.Name == scr.prog.Name && p.Seed == scr.prog.Seed && slices.Equal(p.Phases, scr.prog.Phases) {
		return scr.trace, nil
	}
	scr.held = false // the expansion overwrites the buffer
	accs, err := p.AppendTo(scr.trace[:0])
	if cap(accs) > tracegen.MaxPooledAccesses {
		return accs, err
	}
	scr.trace = accs[:0]
	if err == nil {
		scr.trace = accs
		scr.prog.Name, scr.prog.Seed = p.Name, p.Seed
		scr.prog.Phases = append(scr.prog.Phases[:0], p.Phases...)
		scr.held = true
	}
	return accs, err
}
