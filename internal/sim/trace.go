package sim

import "rdramstream/internal/workload"

// runTrace executes a trace scenario: the Workload spec is materialized
// (generator programs expand here, deterministically) and replayed
// through workload.ReplayTrace under the scenario's scheme, line size,
// and controller — "natural-order" replays in trace order, "smc"
// reorders row-hits-first over a FIFODepth-deep window. The device
// comes from newDevice, the setup RunKernel uses too, so trace rows slot
// into sweeps, caching, and the fabric with no special cases above this
// function.
func runTrace(sc Scenario) (Outcome, error) {
	if err := sc.Validate(); err != nil {
		return Outcome{}, err
	}
	accs, err := sc.Workload.Materialize()
	if err != nil {
		return Outcome{}, err
	}
	dev, scr, err := newDevice(sc)
	if err != nil {
		return Outcome{}, err
	}
	defer scr.release(dev)
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
